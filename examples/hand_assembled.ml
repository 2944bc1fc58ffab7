(* Below the compiler: hand-written WISC assembly with explicit wish
   branches, following the paper's Figure 3(c) hammock shape.

     cmp  p1, p2 = (x < 50)
     (p1) wish.jump THEN
     (p2) ...else side...
     (p2) wish.join JOIN
   THEN:
     (p1) ...then side...
   JOIN:

   Run with:  dune exec examples/hand_assembled.exe *)

open Wishbranch
open Isa

let p1 = 1
let p2 = 2

(* r3 = loop counter, r4 = accumulator, r5 = data pointer base. *)
let code =
  Asm.(
    assemble
      [
        movi 3 0;
        movi 4 0;
        label "LOOP";
        (* x = mem[1000 + (i & 255)] *)
        alu Inst.And 6 3 (Inst.Imm 255);
        alu Inst.Add 6 6 (Inst.Imm 1000);
        load 7 6 0;
        (* hammock on (x < 50), Figure 3c *)
        cmp Inst.Lt ~dst_false:p2 p1 7 (Inst.Imm 50);
        wish_jump ~guard:p1 "THEN";
        alu ~guard:p2 Inst.Add 4 4 (Inst.Reg 7);
        alu ~guard:p2 Inst.And 4 4 (Inst.Imm 0xFFFF);
        wish_join ~guard:p2 "JOIN";
        label "THEN";
        alu ~guard:p1 Inst.Sub 4 4 (Inst.Reg 7);
        alu ~guard:p1 Inst.Xor 4 4 (Inst.Imm 21);
        label "JOIN";
        store 4 0 500;
        (* loop control *)
        alu Inst.Add 3 3 (Inst.Imm 1);
        cmp Inst.Lt p1 3 (Inst.Imm 5000);
        br ~guard:p1 "LOOP";
        halt;
      ])

let data =
  let rng = Util.Rng.create 3 in
  Program.segments_of_pairs (List.init 256 (fun k -> (1000 + k, Util.Rng.int rng 100)))

let () =
  let program = Program.create ~name:"hand-assembled" ~data code in
  Fmt.pr "-- listing --@.%a@." Code.pp code;
  (* Architectural run. *)
  let _, final = Emu.Profile.of_program program in
  Fmt.pr "architectural result: mem[500] = %d after %d instructions@."
    (Emu.Memory.read final.mem 500) final.retired;
  (* Timing: with and without wish-branch hardware (the same binary runs on
     both, per the paper's Section 3.4 encoding argument). *)
  let with_hw = Sim.Runner.simulate program in
  let without_hw =
    Sim.Runner.simulate ~config:{ Sim.Config.default with wish_hardware = false } program
  in
  Fmt.pr "with wish hardware:    %d cycles (%d flushes)@." with_hw.cycles with_hw.flushes;
  Fmt.pr "without wish hardware: %d cycles (%d flushes)@." without_hw.cycles without_hw.flushes
