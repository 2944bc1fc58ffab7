(* Tests for the compiled emulator: per-opcode semantics, predication
   (including cmp.unc), control flow, block edges, tracing, and profiling,
   each against a hand-computed result. *)

open Wish_isa
open Wish_emu

let check = Alcotest.check

(* The final state of an architectural run. *)
let arch program = snd (Profile.of_program program)

let run_items ?data ?(mem_words = 1024) items =
  arch (Program.create ~mem_words ?data (Asm.assemble items))

let reg (st : State.t) r = st.regs.(r)
let pred (st : State.t) p = st.pregs.(p)

(* Arithmetic ------------------------------------------------------------ *)

let test_alu_semantics () =
  let st =
    run_items
      Asm.[
        movi 3 10;
        movi 4 3;
        alu Inst.Add 5 3 (Inst.Reg 4);
        alu Inst.Sub 6 3 (Inst.Reg 4);
        alu Inst.Mul 7 3 (Inst.Reg 4);
        alu Inst.And 8 3 (Inst.Imm 6);
        alu Inst.Or 9 3 (Inst.Imm 5);
        alu Inst.Xor 10 3 (Inst.Imm 6);
        alu Inst.Shl 11 3 (Inst.Imm 2);
        alu Inst.Shr 12 3 (Inst.Imm 1);
        halt;
      ]
  in
  List.iter
    (fun (r, v) -> check Alcotest.int (Printf.sprintf "r%d" r) v (reg st r))
    [ (5, 13); (6, 7); (7, 30); (8, 2); (9, 15); (10, 12); (11, 40); (12, 5) ]

let test_r0_hardwired () =
  let st = run_items Asm.[ movi 0 99; alu Inst.Add 3 0 (Inst.Imm 1); halt ] in
  check Alcotest.int "r0 stays zero" 0 (reg st 0);
  check Alcotest.int "reads as zero" 1 (reg st 3)

let test_cmp_semantics () =
  let st =
    run_items
      Asm.[
        movi 3 5;
        cmp Inst.Lt ~dst_false:2 1 3 (Inst.Imm 9);
        cmp Inst.Eq ~dst_false:4 3 3 (Inst.Imm 9);
        halt;
      ]
  in
  Alcotest.(check bool) "lt true" true (pred st 1);
  Alcotest.(check bool) "complement false" false (pred st 2);
  Alcotest.(check bool) "eq false" false (pred st 3);
  Alcotest.(check bool) "complement true" true (pred st 4)

let test_p0_hardwired () =
  let st = run_items Asm.[ pset 0 false; halt ] in
  Alcotest.(check bool) "p0 stays true" true (pred st 0)

(* Predication ------------------------------------------------------------ *)

let test_guard_false_is_nop () =
  let st =
    run_items
      Asm.[
        movi 3 1;
        pset 1 false;
        movi ~guard:1 3 99; (* NOP *)
        store ~guard:1 3 0 7; (* NOP *)
        halt;
      ]
  in
  check Alcotest.int "reg unchanged" 1 (reg st 3);
  check Alcotest.int "memory unchanged" 0 (Memory.read st.mem 7)

let test_guarded_branch_not_taken () =
  let st =
    run_items
      Asm.[
        pset 1 false;
        br ~guard:1 "skip"; (* guard false: falls through *)
        movi 3 42;
        label "skip";
        halt;
      ]
  in
  check Alcotest.int "fall through executed" 42 (reg st 3)

let test_cmp_unc_clears_on_false_guard () =
  let st =
    run_items
      Asm.[
        pset 1 true;
        pset 2 true;
        pset 3 false;
        movi 4 1;
        cmp ~guard:3 ~unc:true Inst.Eq ~dst_false:2 1 4 (Inst.Imm 1);
        halt;
      ]
  in
  Alcotest.(check bool) "unc clears dst_true" false (pred st 1);
  Alcotest.(check bool) "unc clears dst_false" false (pred st 2)

let test_cmp_normal_keeps_on_false_guard () =
  let st =
    run_items
      Asm.[
        pset 1 true;
        pset 3 false;
        movi 4 1;
        cmp ~guard:3 Inst.Eq 1 4 (Inst.Imm 0);
        halt;
      ]
  in
  Alcotest.(check bool) "normal cmp leaves dest" true (pred st 1)

(* Control flow ------------------------------------------------------------ *)

let test_loop_execution () =
  let st =
    run_items
      Asm.[
        movi 3 0;
        movi 4 0;
        label "loop";
        alu Inst.Add 4 4 (Inst.Reg 3);
        alu Inst.Add 3 3 (Inst.Imm 1);
        cmp Inst.Lt 1 3 (Inst.Imm 10);
        br ~guard:1 "loop";
        halt;
      ]
  in
  check Alcotest.int "sum 0..9" 45 (reg st 4)

let test_call_return () =
  let st =
    run_items
      Asm.[
        movi 3 5;
        call "double";
        call "double";
        jmp "end";
        label "double";
        alu Inst.Add 3 3 (Inst.Reg 3);
        ret ();
        label "end";
        halt;
      ]
  in
  check Alcotest.int "doubled twice" 20 (reg st 3)

let test_return_underflow () =
  Alcotest.check_raises "empty RA stack" (State.Call_stack_error "return with empty call stack")
    (fun () -> ignore (run_items Asm.[ ret () ]))

let test_wish_branches_architectural () =
  (* Figure 3c hammock: wish jump/join behave as normal branches
     architecturally. *)
  let items cond_value =
    Asm.[
      movi 3 cond_value;
      cmp Inst.Eq ~dst_false:2 1 3 (Inst.Imm 1);
      wish_jump ~guard:1 "then_";
      movi ~guard:2 4 100;
      wish_join ~guard:2 "join";
      label "then_";
      movi ~guard:1 4 200;
      label "join";
      halt;
    ]
  in
  check Alcotest.int "taken path" 200 (reg (run_items (items 1)) 4);
  check Alcotest.int "fallthrough path" 100 (reg (run_items (items 0)) 4)

(* Memory ------------------------------------------------------------------ *)

let test_load_store () =
  let st =
    run_items
      ~data:(Program.segments_of_pairs [ (10, 7) ])
      Asm.[ load 3 0 10; alu Inst.Add 3 3 (Inst.Imm 1); store 3 0 11; halt ]
  in
  check Alcotest.int "load+store" 8 (Memory.read st.mem 11)

let test_memory_fault () =
  Alcotest.check_raises "out of range" (Memory.Fault 4096) (fun () ->
      ignore (run_items ~mem_words:4096 Asm.[ movi 3 4096; load 4 3 0; halt ]))

let test_fuel_exhaustion () =
  let code = Asm.(assemble [ label "spin"; jmp "spin"; halt ]) in
  let program = Program.create ~mem_words:64 code in
  Alcotest.check_raises "runaway" (Exec.Out_of_fuel 1000) (fun () ->
      ignore (Profile.of_program ~fuel:1000 program))

(* Tracing ------------------------------------------------------------------ *)

let hammock_program cond_value =
  Program.create ~mem_words:64
    (Asm.assemble
       Asm.[
         movi 3 cond_value;
         cmp Inst.Eq ~dst_false:2 1 3 (Inst.Imm 1);
         wish_jump ~guard:1 "then_";
         movi ~guard:2 4 100;
         wish_join ~guard:2 "join";
         label "then_";
         movi ~guard:1 4 200;
         label "join";
         store 4 0 5;
         halt;
       ])

let test_trace_predicate_through_equivalence () =
  List.iter
    (fun c ->
      let p = hammock_program c in
      let arch = State.outcome (arch p) in
      let _, st = Trace.generate p in
      check Alcotest.int "same memory" arch.memory_checksum (State.outcome st).memory_checksum)
    [ 0; 1 ]

let test_trace_linearizes_wish_region () =
  (* In predicate-through mode every instruction of the region appears in
     the trace, wish jump/join never redirect. *)
  let p = hammock_program 1 in
  let tr, _ = Trace.generate p in
  check Alcotest.int "all instructions traced" 8 (Trace.length tr);
  (* Entry 3 is the guard-false else-side mov. *)
  Alcotest.(check bool) "else side is a NOP" false (Trace.guard_true tr 3);
  (* The wish jump (index 2) records its would-be direction. *)
  Alcotest.(check bool) "jump direction recorded" true (Trace.taken tr 2);
  check Alcotest.int "but falls through" 3 (Trace.next_pc tr 2)

let test_trace_wish_loop_keeps_semantics () =
  let p =
    Program.create ~mem_words:64
      (Asm.assemble
         Asm.[
           movi 3 0;
           pset 1 true;
           label "loop";
           alu ~guard:1 Inst.Add 3 3 (Inst.Imm 1);
           cmp ~guard:1 Inst.Lt 1 3 (Inst.Imm 4);
           wish_loop ~guard:1 "loop";
           store 3 0 5;
           halt;
         ])
  in
  let tr, st = Trace.generate p in
  check Alcotest.int "loop ran" 4 (Memory.read st.mem 5);
  (* Wish loops are NOT linearized: the backward branch is followed. *)
  Alcotest.(check bool) "trace longer than code" true (Trace.length tr > 8)

(* A jump farther than a packed entry's next-pc field reaches: its entry
   escapes to the chunk's side table and must read back unchanged. *)
let test_trace_escaped_entries () =
  let far = 5000 in
  let p =
    Program.create ~mem_words:64
      (Asm.assemble (Asm.[ jmp "far" ] @ List.init far (fun _ -> Asm.nop) @ Asm.[ label "far"; halt ]))
  in
  let tr, _ = Trace.generate p in
  check Alcotest.int "two entries" 2 (Trace.length tr);
  Alcotest.(check bool) "the jump escaped" true (Trace.w_escaped (Trace.word tr 0));
  check Alcotest.int "its pc" 0 (Trace.pc tr 0);
  check Alcotest.int "its next pc" (far + 1) (Trace.next_pc tr 0);
  Alcotest.(check bool) "taken" true (Trace.taken tr 0);
  check Alcotest.int "the target's pc" (far + 1) (Trace.pc tr 1)

(* Streaming ------------------------------------------------------------------ *)

(* Nested variable-trip wish loop: dense in control flow so that, with
   16-entry chunks, branches and their targets land on opposite sides of
   chunk boundaries all over the trace. *)
let streaming_workload ~iters =
  Program.create ~mem_words:64
    (Asm.assemble
       Asm.[
         movi 3 0;
         label "outer";
         alu Inst.And 5 3 (Inst.Imm 3);
         alu Inst.Add 5 5 (Inst.Imm 1);
         pset 1 true;
         label "body";
         alu ~guard:1 Inst.Add 4 4 (Inst.Reg 5);
         alu ~guard:1 Inst.Sub 5 5 (Inst.Imm 1);
         cmp ~guard:1 Inst.Gt 1 5 (Inst.Imm 0);
         wish_loop ~guard:1 "body";
         store 4 0 7;
         alu Inst.Add 3 3 (Inst.Imm 1);
         cmp Inst.Lt 1 3 (Inst.Imm iters);
         br ~guard:1 "outer";
         halt;
       ])

(* Drive a streamed trace like the simulator's oracle does: advance with
   [ensure], retire a bounded look-back behind the frontier with
   [release]. Returns (length, peak resident entries). *)
let drain ?(lookback = 32) ?(compare_to = None) s =
  let i = ref 0 in
  while Trace.ensure s !i do
    let j = !i in
    (match compare_to with
    | Some m ->
      if
        Trace.pc m j <> Trace.pc s j
        || Trace.next_pc m j <> Trace.next_pc s j
        || Trace.addr m j <> Trace.addr s j
        || Trace.guard_true m j <> Trace.guard_true s j
        || Trace.taken m j <> Trace.taken s j
      then Alcotest.failf "streamed entry %d differs from materialized" j
    | None -> ());
    if j land 15 = 0 then Trace.release s (max 0 (j - lookback));
    incr i
  done;
  (!i, Trace.peak_resident_entries s)

let test_stream_entries_match_materialized () =
  let p = streaming_workload ~iters:200 in
  let m, _ = Trace.generate p in
  let s = Trace.stream ~chunk_bits:4 p in
  let len, _ = drain ~compare_to:(Some m) s in
  check Alcotest.int "same length" (Trace.length m) len;
  Alcotest.(check bool) "stream finished" true (Trace.finished s);
  check Alcotest.int "length is final" (Trace.length m) (Trace.length s)

let test_stream_lookback_window_stays_readable () =
  let p = streaming_workload ~iters:50 in
  let m, _ = Trace.generate p in
  let s = Trace.stream ~chunk_bits:4 p in
  let i = ref 0 in
  while Trace.ensure s !i do
    Trace.release s (max 0 (!i - 20));
    (* Anything at or above the release point must still read back
       correctly, chunk boundaries notwithstanding. *)
    let back = max 0 (!i - 20) in
    if Trace.pc s back <> Trace.pc m back then Alcotest.failf "look-back entry %d lost" back;
    incr i
  done;
  Alcotest.(check bool) "dead chunks recycled" true
    (Trace.resident_entries s < Trace.length s)

(* Release landing exactly on a chunk edge: the edge entry becomes the
   lowest retained one. It must stay readable (the sampler opens
   measurement windows precisely at such boundaries), the entry just
   below must be gone, and the chunks fully covered by the release must
   actually have been recycled. *)
let test_stream_release_at_chunk_boundary () =
  let p = streaming_workload ~iters:100 in
  let m, _ = Trace.generate p in
  let s = Trace.stream ~chunk_bits:4 p in
  let cap = Trace.chunk_capacity s in
  check Alcotest.int "chunk capacity" 16 cap;
  let edge = 4 * cap in
  Alcotest.(check bool) "trace long enough" true (Trace.ensure s (edge + cap));
  let resident_before = Trace.resident_entries s in
  Trace.release s edge;
  (* The lowest retained entry — first of its chunk — reads back intact,
     as does the rest of its chunk. *)
  check Alcotest.int "edge entry pc" (Trace.pc m edge) (Trace.pc s edge);
  check Alcotest.int "edge entry next_pc" (Trace.next_pc m edge) (Trace.next_pc s edge);
  Trace.iter_range s ~from:edge ~until:(edge + cap) ~f:(fun i ~pc ~guard_true:_ ~taken:_ ~addr:_ ->
      if pc <> Trace.pc m i then Alcotest.failf "entry %d corrupted after release" i);
  (* Everything below the edge is dead. *)
  (match Trace.pc s (edge - 1) with
  | _ -> Alcotest.fail "entry below the released edge still readable"
  | exception Invalid_argument _ -> ());
  (* The released chunks were recycled, not merely hidden. *)
  Alcotest.(check bool) "released chunks recycled" true
    (Trace.resident_entries s <= resident_before - edge);
  (* A second release below the watermark is a no-op: it must not
     resurrect or re-request recycled chunks. *)
  Trace.release s (edge - cap);
  check Alcotest.int "edge entry still readable" (Trace.pc m edge) (Trace.pc s edge)

let test_stream_bounded_memory () =
  let run iters = drain (Trace.stream ~chunk_bits:4 (streaming_workload ~iters)) in
  let len1, peak1 = run 100 in
  let len8, peak8 = run 800 in
  Alcotest.(check bool) "8x run really is longer" true (len8 > 7 * len1);
  (* Same consumer window, same chunking: the high-water mark must not
     depend on run length... *)
  check Alcotest.int "peak independent of length" peak1 peak8;
  (* ...and must stay within the window-derived cap: look-back (32) plus
     the frontier chunk plus release's one-chunk hysteresis. *)
  Alcotest.(check bool) "peak within window cap" true (peak8 <= 32 + (3 * 16))

(* Profiling ----------------------------------------------------------------- *)

let test_profile_counts () =
  let p =
    Program.create ~mem_words:64
      (Asm.assemble
         Asm.[
           movi 3 0;
           label "loop";
           alu Inst.Add 3 3 (Inst.Imm 1);
           cmp Inst.Lt 1 3 (Inst.Imm 10);
           br ~guard:1 "loop";
           halt;
         ])
  in
  let prof, _ = Profile.of_program p in
  check Alcotest.int "one static branch" 1 (Profile.static_branch_count prof);
  check (Alcotest.float 1e-9) "taken rate 9/10" 0.9 (Profile.taken_rate prof 3);
  check Alcotest.int "dynamic cond branches" 10 prof.dynamic_cond_branches

let test_outcome_ignores_registers () =
  let a = run_items Asm.[ movi 3 1; store 3 0 5; halt ] in
  let b = run_items Asm.[ movi 9 1; store 9 0 5; movi 10 77; halt ] in
  Alcotest.(check bool) "same outcome"
    true
    ((State.outcome a).memory_checksum = (State.outcome b).memory_checksum)

(* Block edges ------------------------------------------------------------------

   Back-edges into fused regions, predicate clears whose effect crosses a
   block end, halts that do not halt: each program's final state, in both
   modes, against hand-computed registers, memory and retired counts. *)

let both_modes program =
  [ ("arch", arch program); ("pt", snd (Trace.generate program)) ]

let check_edges ~tag items ~retired expect =
  let program = Program.create ~mem_words:64 (Asm.assemble items) in
  List.iter
    (fun (mtag, (st : State.t)) ->
      let tag = tag ^ "/" ^ mtag in
      List.iter (fun (what, want, got) -> check Alcotest.int (tag ^ ": " ^ what) want (got st)) expect;
      check Alcotest.int (tag ^ ": retired") retired st.retired)
    (both_modes program)

let test_block_edges () =
  check_edges ~tag:"wish-loop back-edge"
    Asm.[
      movi 3 0;
      pset 1 true;
      label "loop";
      alu ~guard:1 Inst.Add 3 3 (Inst.Imm 1);
      cmp ~guard:1 Inst.Lt 1 3 (Inst.Imm 5);
      wish_loop ~guard:1 "loop";
      store 3 0 5;
      halt;
    ]
    ~retired:19
    [ ("mem[5]", 5, fun st -> Memory.read st.State.mem 5) ];
  check_edges ~tag:"cmp.unc clear feeds next block"
    Asm.[
      pset 1 false;
      pset 2 true;
      pset 3 true;
      movi 4 1;
      cmp ~guard:1 ~unc:true Inst.Eq ~dst_false:3 2 4 (Inst.Imm 1);
      br ~guard:2 "skip"; (* p2 was cleared: must fall through *)
      movi 5 7;
      label "skip";
      halt;
    ]
    ~retired:8
    [ ("r5", 7, fun st -> reg st 5); ("p3", 0, fun st -> Bool.to_int (pred st 3)) ];
  check_edges ~tag:"guarded halt mid-block"
    Asm.[
      pset 1 false;
      movi 3 1;
      inst ~guard:1 Inst.Halt; (* guard false: execution continues *)
      movi 3 2;
      halt;
    ]
    ~retired:5
    [ ("r3", 2, fun st -> reg st 3) ];
  (* The hammock's wish jump and join redirect architecturally and fall
     through predicate-through, so the modes retire differently. *)
  List.iter
    (fun (c, value, arch_retired) ->
      let p = hammock_program c in
      List.iter
        (fun (mtag, (st : State.t), retired) ->
          let tag = Printf.sprintf "hammock-%d/%s" c mtag in
          check Alcotest.int (tag ^ ": mem[5]") value (Memory.read st.mem 5);
          check Alcotest.int (tag ^ ": retired") retired st.retired)
        [ ("arch", arch p, arch_retired); ("pt", snd (Trace.generate p), 8) ])
    [ (0, 100, 7); (1, 200, 6) ]

(* Out_of_fuel fires with exactly the fuel retired, whether the fuel
   line lands inside a fused block or on a block boundary: the first
   block (movi, add, jmp) is three instructions long and every later one
   (add, jmp) two, so blocks end at odd retired counts and a fuel of 1000
   falls inside one, 1001 on a boundary. *)
let test_fuel_exact () =
  let program =
    Program.create ~mem_words:64
      (Asm.assemble
         Asm.[
           movi 3 0; label "spin"; alu Inst.Add 3 3 (Inst.Imm 1); jmp "spin"; halt;
         ])
  in
  let c = Compiled.compile ~mode:Exec.Architectural (Program.code program) in
  List.iter
    (fun fuel ->
      let st = State.create program in
      Alcotest.check_raises
        (Printf.sprintf "fuel %d raises its fuel" fuel)
        (Exec.Out_of_fuel fuel)
        (fun () -> Compiled.run_to_halt c st (Exec.make_out ()) ~sink:Compiled.no_sink ~fuel);
      check Alcotest.int (Printf.sprintf "fuel %d: retired equals fuel at raise" fuel) fuel
        st.State.retired)
    [ 1000; 1001 ]

(* Static block structure of the Figure 3c hammock: wish jump (pc 2,
   target 5) and wish join (pc 4, target 6) end blocks architecturally
   but are fused in predicate-through mode; branch targets stay leaders
   either way. *)
let test_block_structure () =
  let code = Program.code (hammock_program 1) in
  let leaders fuse_wish = Code.block_leaders ~fuse_wish code in
  check Alcotest.(list bool) "architectural leaders"
    [ true; false; false; true; false; true; true; false ]
    (Array.to_list (leaders false));
  check Alcotest.(list bool) "predicate-through leaders"
    [ true; false; false; false; false; true; true; false ]
    (Array.to_list (leaders true));
  let bc mode = Compiled.block_count (Compiled.compile ~mode code) in
  check Alcotest.int "arch block count" 4 (bc Exec.Architectural);
  check Alcotest.int "pt block count (coarser)" 3 (bc Exec.Predicate_through)

(* Pinned trace hash: the predicate-through trace of the taken-side
   hammock, folded entry by entry. Catches any silent change to trace
   contents from either refill path. *)
let test_pinned_trace_hash () =
  let tr, _ = Trace.generate (hammock_program 1) in
  let h = ref 0 in
  for i = 0 to Trace.length tr - 1 do
    h :=
      ((!h * 1000003) land 0xFF_FFFF_FFFF)
      + (Trace.pc tr i * 31)
      + (Trace.next_pc tr i * 7)
      + (Trace.addr tr i + 2)
      + (if Trace.guard_true tr i then 3 else 0)
      + if Trace.taken tr i then 13 else 0
  done;
  check Alcotest.int "pinned trace hash" 980_269_849_197 !h

let () =
  Alcotest.run "wish_emu"
    [
      ( "alu",
        [
          Alcotest.test_case "semantics" `Quick test_alu_semantics;
          Alcotest.test_case "r0 hardwired" `Quick test_r0_hardwired;
          Alcotest.test_case "cmp" `Quick test_cmp_semantics;
          Alcotest.test_case "p0 hardwired" `Quick test_p0_hardwired;
        ] );
      ( "predication",
        [
          Alcotest.test_case "guard-false is NOP" `Quick test_guard_false_is_nop;
          Alcotest.test_case "guarded branch" `Quick test_guarded_branch_not_taken;
          Alcotest.test_case "cmp.unc clears" `Quick test_cmp_unc_clears_on_false_guard;
          Alcotest.test_case "cmp keeps" `Quick test_cmp_normal_keeps_on_false_guard;
        ] );
      ( "control",
        [
          Alcotest.test_case "loop" `Quick test_loop_execution;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "return underflow" `Quick test_return_underflow;
          Alcotest.test_case "wish branches" `Quick test_wish_branches_architectural;
        ] );
      ( "memory",
        [
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "fault" `Quick test_memory_fault;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
        ] );
      ( "trace",
        [
          Alcotest.test_case "predicate-through equivalence" `Quick
            test_trace_predicate_through_equivalence;
          Alcotest.test_case "linearizes wish regions" `Quick test_trace_linearizes_wish_region;
          Alcotest.test_case "wish loops keep semantics" `Quick test_trace_wish_loop_keeps_semantics;
          Alcotest.test_case "escaped entries read back" `Quick test_trace_escaped_entries;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "entries match materialized" `Quick
            test_stream_entries_match_materialized;
          Alcotest.test_case "look-back window readable" `Quick
            test_stream_lookback_window_stays_readable;
          Alcotest.test_case "bounded memory" `Quick test_stream_bounded_memory;
          Alcotest.test_case "release at chunk boundary" `Quick
            test_stream_release_at_chunk_boundary;
        ] );
      ( "profile",
        [
          Alcotest.test_case "counts" `Quick test_profile_counts;
          Alcotest.test_case "outcome ignores registers" `Quick test_outcome_ignores_registers;
        ] );
      ( "emu-identity",
        [
          Alcotest.test_case "block-boundary edge cases" `Quick test_block_edges;
          Alcotest.test_case "fuel-exact fallback" `Quick test_fuel_exact;
          Alcotest.test_case "block structure" `Quick test_block_structure;
          Alcotest.test_case "pinned trace hash" `Quick test_pinned_trace_hash;
        ] );
    ]
