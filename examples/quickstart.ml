(* Quickstart: write a small Kernel program, compile it into the paper's
   five binary flavours, and compare them on the simulated machine.

   Run with:  dune exec examples/quickstart.exe *)

open Wishbranch

(* A kernel with one hard-to-predict hammock: sum absolute differences of
   two pseudo-random arrays. The branch (a < b) is a coin flip, so
   predication (and wish branches in low-confidence mode) should beat
   branch prediction. *)
let program_ast =
  let open Compiler.Ast.O in
  let open Compiler.Ast in
  {
    funcs = [];
    main =
      [
        "sad" <-- i 0;
        For
          ( "k",
            i 0,
            i 4000,
            [
              "a" <-- mem (i 1000 + (v "k" &&& i 1023));
              "b" <-- mem (i 3000 + (v "k" &&& i 1023));
              If
                ( v "a" < v "b",
                  [
                    "d" <-- (v "b" - v "a");
                    "sad" <-- (v "sad" + v "d");
                    "sad" <-- (v "sad" &&& i 0xFFFFFF);
                    "lo" <-- (v "lo" + i 1);
                    "sad" <-- (v "sad" + (v "lo" &&& i 3));
                    "sad" <-- (v "sad" ^^ v "d");
                  ],
                  [
                    "d" <-- (v "a" - v "b");
                    "sad" <-- (v "sad" + (v "d" << i 1));
                    "sad" <-- (v "sad" &&& i 0xFFFFFF);
                    "hi" <-- (v "hi" + i 1);
                    "sad" <-- (v "sad" + (v "hi" &&& i 7));
                    "sad" <-- (v "sad" ^^ i 99);
                  ] );
              Store (i 500, v "sad");
            ] );
      ];
  }

(* Input data: two uncorrelated pseudo-random arrays. *)
let data =
  let rng = Util.Rng.create 7 in
  Isa.Program.segments_of_pairs
    (List.init 2048 (fun k ->
         ((if k < 1024 then 1000 + k else 3000 + k - 1024), Util.Rng.int rng 65536)))

let () =
  (* 1. Compile. Profile feedback comes from the same input here; real
     workloads train on one input and run on others. *)
  let bins = Compiler.compile_all ~name:"quickstart" ~profile_data:data program_ast in

  (* 2. Check architectural equivalence of all five binaries. *)
  let outcome p = (Emu.State.outcome (snd (Emu.Profile.of_program p))).memory_checksum in
  let reference = outcome (Isa.Program.with_data bins.normal data) in
  List.iter
    (fun kind ->
      let p = Isa.Program.with_data (Compiler.binary bins kind) data in
      assert (outcome p = reference))
    Compiler.all_kinds;
  print_endline "all five binaries compute the same result";

  (* 3. Simulate each flavour and compare. *)
  print_endline "binary                  cycles    uPC    flushes";
  List.iter
    (fun kind ->
      let p = Isa.Program.with_data (Compiler.binary bins kind) data in
      let s = Sim.Runner.simulate p in
      Printf.printf "%-22s %8d  %5.2f   %6d\n"
        (Compiler.Policy.kind_name kind)
        s.cycles s.upc s.flushes)
    Compiler.all_kinds
