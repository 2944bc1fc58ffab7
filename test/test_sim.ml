(* Simulator behaviour tests: pipeline sanity, misprediction recovery, the
   wish-branch no-flush guarantees, oracle idealization knobs, and the
   select-µop mechanism. *)

open Wish_isa
open Wish_sim

let check = Alcotest.check

let simulate ?(config = Config.default) ?data ?(mem_words = 1 lsl 14) items =
  let program = Program.create ~mem_words ?data (Asm.assemble items) in
  Runner.simulate ~config program

let stat (s : Runner.summary) c = Counters.get s.counts c
let counters = Alcotest.testable Counters.pp ( = )

(* A counted loop with a hard-to-predict hammock inside: the workhorse for
   recovery-behaviour tests. The hammock condition comes from a data table
   so its predictability is controlled by the data generator. *)
let hammock_kernel ~wish ~iters =
  let hammock_branch ~guard l = if wish then Asm.wish_jump ~guard l else Asm.br ~guard l in
  Asm.[
    movi 3 0;
    movi 4 0;
    label "loop";
    alu Inst.And 6 3 (Inst.Imm 1023);
    alu Inst.Add 6 6 (Inst.Imm 64);
    load 7 6 0;
    cmp Inst.Eq ~dst_false:2 1 7 (Inst.Imm 1);
    hammock_branch ~guard:1 "then_";
    alu ~guard:2 Inst.Add 4 4 (Inst.Reg 7);
    alu ~guard:2 Inst.Xor 4 4 (Inst.Imm 3);
    alu ~guard:2 Inst.And 4 4 (Inst.Imm 65535);
    (if wish then Asm.wish_join ~guard:2 "join" else Asm.jmp "join");
    label "then_";
    alu ~guard:1 Inst.Sub 4 4 (Inst.Imm 7);
    alu ~guard:1 Inst.Xor 4 4 (Inst.Imm 11);
    alu ~guard:1 Inst.And 4 4 (Inst.Imm 65535);
    label "join";
    store 4 0 5;
    alu Inst.Add 3 3 (Inst.Imm 1);
    cmp Inst.Lt 1 3 (Inst.Imm iters);
    br ~guard:1 "loop";
    halt;
  ]

let coin_data =
  let rng = Wish_util.Rng.create 31 in
  Program.segments_of_pairs (List.init 1024 (fun k -> (64 + k, Wish_util.Rng.int rng 2)))

(* Basic sanity ---------------------------------------------------------- *)

let test_terminates_and_counts () =
  let s = simulate Asm.[ movi 3 1; alu Inst.Add 3 3 (Inst.Imm 1); store 3 0 0; halt ] in
  check Alcotest.int "all uops retired" 4 s.retired_uops;
  check Alcotest.int "dynamic insts" 4 s.dynamic_insts;
  Alcotest.(check bool) "cycles >= depth" true (s.cycles >= Config.default.frontend_depth)

let test_deterministic () =
  let run () = (simulate ~data:coin_data (hammock_kernel ~wish:false ~iters:300)).cycles in
  check Alcotest.int "same cycles twice" (run ()) (run ())

let test_upc_bounded_by_width () =
  let s = simulate ~data:coin_data (hammock_kernel ~wish:false ~iters:300) in
  Alcotest.(check bool) "uPC <= fetch width" true (s.upc <= float_of_int Config.default.fetch_width)

let test_nops_eliminated () =
  let s = simulate Asm.[ nop; nop; movi 3 1; nop; halt ] in
  check Alcotest.int "nops dropped at translation" 2 s.retired_uops;
  check Alcotest.int "counted" 3 (stat s Counters.nops_eliminated)

(* Misprediction recovery -------------------------------------------------- *)

let test_coin_branch_mispredicts_and_flushes () =
  let s = simulate ~data:coin_data (hammock_kernel ~wish:false ~iters:500) in
  Alcotest.(check bool) "many mispredicts" true (s.mispredicts > 100);
  check Alcotest.int "every mispredict flushes (no wish hw in play)" s.mispredicts s.flushes

let test_min_misprediction_penalty () =
  (* Cycles must grow by at least ~frontend_depth per flush. *)
  let easy =
    simulate
      ~data:(Program.segments_of_pairs (List.init 1024 (fun k -> (64 + k, 0))))
      (hammock_kernel ~wish:false ~iters:500)
  in
  let hard = simulate ~data:coin_data (hammock_kernel ~wish:false ~iters:500) in
  let extra_flushes = hard.flushes - easy.flushes in
  Alcotest.(check bool) "penalty >= depth" true
    (hard.cycles - easy.cycles >= extra_flushes * Config.default.frontend_depth / 2)

let test_perfect_bp_never_flushes () =
  let config = { Config.default with knobs = { Config.no_knobs with perfect_bp = true } } in
  let s = simulate ~config ~data:coin_data (hammock_kernel ~wish:false ~iters:500) in
  check Alcotest.int "no flushes" 0 s.flushes;
  check Alcotest.int "no mispredicts" 0 s.mispredicts

let test_deeper_pipeline_slower_on_hard_branches () =
  let run stages =
    let config = Config.with_pipeline_stages Config.default stages in
    (simulate ~config ~data:coin_data (hammock_kernel ~wish:false ~iters:500)).cycles
  in
  Alcotest.(check bool) "10 <= 20 <= 30 stages" true (run 10 <= run 20 && run 20 <= run 30)

let test_bigger_window_not_slower () =
  let run rob =
    let config = Config.with_rob Config.default rob in
    (simulate ~config ~data:coin_data (hammock_kernel ~wish:false ~iters:500)).cycles
  in
  Alcotest.(check bool) "512 <= 128 window cycles" true (run 512 <= run 128)

(* Wish branch semantics ----------------------------------------------------- *)

let test_low_conf_wish_never_flushes_jumps () =
  (* Force permanent low confidence with an impossible threshold: every
     wish jump/join executes predicated, so the hammock causes no flushes
     (the loop branch is highly predictable and doesn't either). *)
  let config =
    { Config.default with conf = { Config.default.conf with Wish_bpred.Confidence.threshold = 15 } }
  in
  let s = simulate ~config ~data:coin_data (hammock_kernel ~wish:true ~iters:500) in
  Alcotest.(check bool) "wish branches ran low-confidence" true
    (stat s Counters.wish_low_correct + stat s Counters.wish_low_mispred > 900);
  Alcotest.(check bool) "hammock mispredicts don't flush" true (s.flushes < 25);
  Alcotest.(check bool) "yet mispredictions happened" true (stat s Counters.wish_low_mispred > 100)

let test_wish_beats_normal_on_coin_branch () =
  let n = simulate ~data:coin_data (hammock_kernel ~wish:false ~iters:800) in
  let w = simulate ~data:coin_data (hammock_kernel ~wish:true ~iters:800) in
  Alcotest.(check bool) "wish faster on 50/50 branch" true (w.cycles < n.cycles)

let test_wish_hardware_off_behaves_like_normal () =
  let config = { Config.default with wish_hardware = false } in
  let s = simulate ~config ~data:coin_data (hammock_kernel ~wish:true ~iters:500) in
  check Alcotest.int "no wish accounting" 0 (stat s Counters.wish_retired);
  Alcotest.(check bool) "mispredicts flush as usual" true (s.flushes > 100)

let test_perfect_conf_dominates_real () =
  let perfect =
    { Config.default with knobs = { Config.no_knobs with perfect_conf = true } }
  in
  let r = simulate ~data:coin_data (hammock_kernel ~wish:true ~iters:800) in
  let p = simulate ~config:perfect ~data:coin_data (hammock_kernel ~wish:true ~iters:800) in
  Alcotest.(check bool) "oracle confidence at least as good" true (p.cycles <= r.cycles + 50);
  check Alcotest.int "high-confidence never mispredicted" 0 (stat p Counters.wish_high_mispred)

(* Wish loops ------------------------------------------------------------------ *)

(* Variable-trip do-while loop (Figure 4b shape). *)
let wish_loop_kernel ~wish ~iters =
  let back_branch ~guard l = if wish then Asm.wish_loop ~guard l else Asm.br ~guard l in
  Asm.[
    movi 3 0;
    movi 4 0;
    label "outer";
    alu Inst.And 6 3 (Inst.Imm 1023);
    alu Inst.Add 6 6 (Inst.Imm 64);
    load 7 6 0; (* k = table value in 0..6, +1 below *)
    alu Inst.Add 7 7 (Inst.Imm 1);
    pset 1 true;
    label "body";
    alu ~guard:1 Inst.Add 4 4 (Inst.Reg 7);
    alu ~guard:1 Inst.And 4 4 (Inst.Imm 65535);
    alu ~guard:1 Inst.Sub 7 7 (Inst.Imm 1);
    cmp ~guard:1 Inst.Gt 1 7 (Inst.Imm 0);
    back_branch ~guard:1 "body";
    store 4 0 5;
    alu Inst.Add 3 3 (Inst.Imm 1);
    cmp Inst.Lt 1 3 (Inst.Imm iters);
    br ~guard:1 "outer";
    halt;
  ]

let trip_data =
  let rng = Wish_util.Rng.create 77 in
  Program.segments_of_pairs (List.init 1024 (fun k -> (64 + k, Wish_util.Rng.int rng 7)))

let test_wish_loop_classification () =
  let s = simulate ~data:trip_data (wish_loop_kernel ~wish:true ~iters:600) in
  let late = stat s Counters.loop_low_late
  and early = stat s Counters.loop_low_early
  and noexit = stat s Counters.loop_low_noexit in
  Alcotest.(check bool) "late exits happen" true (late > 50);
  Alcotest.(check bool) "late exits dominate flushing cases" true (late > early + noexit);
  Alcotest.(check bool) "phantom NOPs retired" true (s.retired_phantom > 100)

let test_wish_loop_late_exit_no_flush () =
  let n = simulate ~data:trip_data (wish_loop_kernel ~wish:false ~iters:600) in
  let w = simulate ~data:trip_data (wish_loop_kernel ~wish:true ~iters:600) in
  Alcotest.(check bool) "fewer flushes with wish loop" true (w.flushes < n.flushes / 2);
  Alcotest.(check bool) "faster too" true (w.cycles < n.cycles)

let test_wish_loop_equivalent_retirement () =
  (* Phantom µops retire but never change architectural counts. *)
  let s = simulate ~data:trip_data (wish_loop_kernel ~wish:true ~iters:200) in
  check Alcotest.int "correct-path retirement matches trace" s.dynamic_insts s.retired_uops

(* Oracle knobs ------------------------------------------------------------------ *)

(* Fully predicated hammock (BASE-MAX shape, no branches in the body). *)
let predicated_kernel ~iters =
  Asm.[
    movi 3 0;
    movi 4 0;
    label "loop";
    alu Inst.And 6 3 (Inst.Imm 1023);
    alu Inst.Add 6 6 (Inst.Imm 64);
    load 7 6 0;
    cmp Inst.Eq ~dst_false:2 1 7 (Inst.Imm 1);
    alu ~guard:1 Inst.Sub 4 4 (Inst.Imm 7);
    alu ~guard:1 Inst.Xor 4 4 (Inst.Imm 11);
    alu ~guard:2 Inst.Add 4 4 (Inst.Reg 7);
    alu ~guard:2 Inst.Xor 4 4 (Inst.Imm 3);
    alu Inst.And 4 4 (Inst.Imm 65535);
    store 4 0 5;
    alu Inst.Add 3 3 (Inst.Imm 1);
    cmp Inst.Lt 1 3 (Inst.Imm iters);
    br ~guard:1 "loop";
    halt;
  ]

let test_no_fetch_drops_false_uops () =
  let base = simulate ~data:coin_data (predicated_kernel ~iters:400) in
  let config = { Config.default with knobs = { Config.no_knobs with no_fetch = true } } in
  let ideal = simulate ~config ~data:coin_data (predicated_kernel ~iters:400) in
  Alcotest.(check bool) "uops dropped" true (stat ideal Counters.nofetch_dropped > 700);
  Alcotest.(check bool) "fewer retired" true (ideal.retired_uops < base.retired_uops);
  Alcotest.(check bool) "not slower" true (ideal.cycles <= base.cycles)

let test_no_depend_not_slower () =
  let base = simulate ~data:coin_data (predicated_kernel ~iters:400) in
  let config = { Config.default with knobs = { Config.no_knobs with no_depend = true } } in
  let ideal = simulate ~config ~data:coin_data (predicated_kernel ~iters:400) in
  Alcotest.(check bool) "removing dependencies cannot hurt" true (ideal.cycles <= base.cycles)

(* Streaming pipeline ---------------------------------------------------------- *)

let summary_fields (s : Runner.summary) =
  [ s.cycles; s.dynamic_insts; s.retired_uops; s.retired_phantom; s.mispredicts; s.flushes ]

let simulate_streaming ?(config = Config.default) ?chunk_bits ?data ?(mem_words = 1 lsl 14)
    items =
  let program = Program.create ~mem_words ?data (Asm.assemble items) in
  let trace = Wish_emu.Trace.stream ?chunk_bits program in
  (Runner.simulate ~config ~trace program, trace)

(* Every wish flavour the kernels cover: normal branches (flush-recovery
   rewinds), wish jump/join (predicate-through regions), and wish loops
   (phantom injection past the real trip count). *)
let streaming_cases =
  [
    ("normal hammock", hammock_kernel ~wish:false ~iters:400, coin_data);
    ("wish hammock", hammock_kernel ~wish:true ~iters:400, coin_data);
    ("normal loop", wish_loop_kernel ~wish:false ~iters:300, trip_data);
    ("wish loop", wish_loop_kernel ~wish:true ~iters:300, trip_data);
  ]

let test_streaming_matches_materialized () =
  List.iter
    (fun (name, items, data) ->
      let m = simulate ~data items in
      let s, _ = simulate_streaming ~data items in
      Alcotest.(check (list int)) name (summary_fields m) (summary_fields s))
    streaming_cases

let test_streaming_tiny_chunks_match () =
  (* 16-entry chunks: branches straddle chunk boundaries, misprediction
     recovery rewinds across them, and wish-loop phantoms span chunks. *)
  List.iter
    (fun (name, items, data) ->
      let m = simulate ~data items in
      let s, _ = simulate_streaming ~chunk_bits:4 ~data items in
      Alcotest.(check (list int)) name (summary_fields m) (summary_fields s))
    streaming_cases

let test_streaming_bounded_residency () =
  let run iters =
    let s, trace =
      simulate_streaming ~chunk_bits:6 ~data:coin_data (hammock_kernel ~wish:true ~iters)
    in
    (s.dynamic_insts, Wish_emu.Trace.peak_resident_entries trace)
  in
  let len1, peak1 = run 2000 in
  let len4, peak4 = run 8000 in
  Alcotest.(check bool) "4x run really is longer" true (len4 > 3 * len1);
  (* The simulator's look-back window is its instruction window: entries
     release as uops retire, so peak residency is capped by ROB size (a
     trace entry per in-flight uop, plus the guard-false entries fetch
     consumes without occupying a slot) plus chunk-granularity slack —
     and is independent of trace length. *)
  let cap = (2 * Config.default.rob_size) + (4 * 64) in
  Alcotest.(check bool) "peak within window-derived cap" true (peak4 <= cap);
  Alcotest.(check bool) "peak independent of length" true (abs (peak4 - peak1) <= 2 * 64)

(* Select-µop mechanism ------------------------------------------------------------ *)

let test_select_uop_expands () =
  let c_style = simulate ~data:coin_data (predicated_kernel ~iters:300) in
  let config = { Config.default with mech = Config.Select_uop } in
  let select = simulate ~config ~data:coin_data (predicated_kernel ~iters:300) in
  Alcotest.(check bool) "select retires more uops" true
    (select.retired_uops > c_style.retired_uops);
  check Alcotest.int "same architectural work" c_style.dynamic_insts select.dynamic_insts

(* Fetch probe ------------------------------------------------------------------------- *)

(* A loop of eleven never-taken conditional branches (guard p2 is never
   set) and a taken loop-back one. Fetch takes at most
   [max_cond_branches] conditional branches a cycle and ends at a taken
   branch, so once the predictors are warm an iteration costs
   ceil(12 / max_cond_branches) fetch cycles; the difference of a 200-
   and a 100-iteration run cancels warm-up, exit flush and drain. *)
let test_cond_branches_per_fetch_cycle () =
  let kernel iters =
    Asm.(
      [ movi 3 0; label "loop" ]
      @ List.init 11 (fun _ -> br ~guard:2 "out")
      @ [
          alu Inst.Add 3 3 (Inst.Imm 1);
          cmp Inst.Lt 1 3 (Inst.Imm iters);
          br ~guard:1 "loop";
          label "out";
          halt;
        ])
  in
  List.iter
    (fun (max_cond_branches, per_iter) ->
      let config = { Config.default with max_cond_branches } in
      let cycles iters = (simulate ~config (kernel iters)).cycles in
      check Alcotest.int
        (Printf.sprintf "cycles per iteration at %d a cycle" max_cond_branches)
        (100 * per_iter)
        (cycles 200 - cycles 100))
    [ (3, 4); (4, 3) ]

(* I-cache ---------------------------------------------------------------------------- *)

let test_icache_cold_stalls_counted () =
  let s = simulate Asm.[ movi 3 1; halt ] in
  Alcotest.(check bool) "first line fetch missed" true (s.mem.l1i_misses >= 1)

(* Sampled simulation ----------------------------------------------------------------- *)

let sampled_fixture =
  lazy
    (let program =
       Program.create ~mem_words:(1 lsl 14) ~data:coin_data
         (Asm.assemble (hammock_kernel ~wish:true ~iters:2000))
     in
     let trace, _ = Wish_emu.Trace.generate program in
     (program, trace))

let sampled_spec = Sampler.spec ~warm:1_000 ~detail:5_000

let test_sampler_report_well_formed () =
  let program, trace = Lazy.force sampled_fixture in
  let s, r = Runner.simulate_sampled ~spec:sampled_spec ~trace program in
  Alcotest.(check bool) "windows nonempty" true (r.r_windows <> []);
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 r.r_windows in
  check Alcotest.int "entries are window sum" r.r_measured_entries
    (sum (fun w -> w.Sampler.w_entries));
  check Alcotest.int "cycles are window sum" r.r_measured_cycles
    (sum (fun w -> w.Sampler.w_cycles));
  check Alcotest.int "uops are window sum" (Counters.get r.r_measured Counters.retired_correct)
    (sum (fun w -> Counters.get w.Sampler.w_counts Counters.retired_correct));
  Alcotest.(check bool) "estimated cycles positive" true (r.r_est_cycles > 0);
  Alcotest.(check bool) "measured a strict subset" true
    (r.r_measured_entries < r.r_total_insts);
  check Alcotest.int "summary carries the estimate" r.r_est_cycles s.cycles;
  check Alcotest.int "summary spans the whole trace" r.r_total_insts s.dynamic_insts

(* A sampled summary estimates each count once: every headline field is
   its counter's stratified estimate, as [counts] holds it. *)
let test_sampled_headline_is_its_counter () =
  let program, trace = Lazy.force sampled_fixture in
  let s, r = Runner.simulate_sampled ~spec:sampled_spec ~trace program in
  check counters "counts are the report's estimates" r.r_est_counts s.counts;
  List.iter
    (fun (what, field, c) -> check Alcotest.int what (stat s c) field)
    Counters.
      [
        ("retired µops", s.retired_uops, retired_correct);
        ("retired phantoms", s.retired_phantom, retired_phantom);
        ("fetched µops", s.fetched_uops, fetched_uops);
        ("flushes", s.flushes, flushes);
        ("mispredicts", s.mispredicts, mispredicts_retired);
        ("conditional branches", s.cond_branches, cond_branches_retired);
      ]

let test_sampler_parallel_identical () =
  let program, trace = Lazy.force sampled_fixture in
  let _, r = Runner.simulate_sampled ~spec:sampled_spec ~trace program in
  let pool = Wish_util.Pool.create ~size:2 () in
  let pooled trace = snd (Runner.simulate_sampled ~pool ~spec:sampled_spec ~trace program) in
  (* Small chunks so the pooled streaming run recycles chunks between
     window batches. *)
  let r_par, r_stream =
    Fun.protect
      ~finally:(fun () -> Wish_util.Pool.shutdown pool)
      (fun () -> (pooled trace, pooled (Wish_emu.Trace.stream ~chunk_bits:10 program)))
  in
  List.iter
    (fun (tag, (p : Sampler.report)) ->
      Alcotest.(check bool) (tag ^ ": window list identical") true (p.r_windows = r.r_windows);
      check (Alcotest.float 0.0) (tag ^ ": uPC identical") r.r_upc p.r_upc;
      check Alcotest.int (tag ^ ": estimated cycles identical") r.r_est_cycles p.r_est_cycles)
    [ ("materialized", r_par); ("streamed", r_stream) ]

let test_sampler_tiny_trace_is_exact () =
  (* A detail window longer than the whole trace degenerates to one cold
     window starting at entry 0 — i.e. the exact simulation. *)
  let program =
    Program.create ~mem_words:(1 lsl 14) ~data:coin_data
      (Asm.assemble (hammock_kernel ~wish:true ~iters:100))
  in
  let trace, _ = Wish_emu.Trace.generate program in
  let exact = Runner.simulate ~trace program in
  let spec = Sampler.spec ~warm:1_000 ~detail:1_000_000 in
  let s, r = Runner.simulate_sampled ~spec ~trace program in
  check Alcotest.int "one cold window" 1 (List.length r.r_windows);
  check Alcotest.int "every entry measured" r.r_total_insts r.r_measured_entries;
  check Alcotest.int "cycle estimate is the exact count" exact.cycles r.r_est_cycles;
  check (Alcotest.float 1e-6) "uPC is the exact uPC" exact.upc s.upc;
  Alcotest.(check bool) "the kernel retires wish branches" true
    (stat exact Counters.wish_retired > 0);
  check counters "every counter is the exact count" exact.counts s.counts

(* With no spec given, a streaming trace is sampled under the auto spec
   its dynamic length sizes, as a materialized one is: the same report. *)
let test_sampler_stream_auto_spec () =
  let program, trace = Lazy.force sampled_fixture in
  let _, r = Runner.simulate_sampled ~trace program in
  let _, r_stream = Runner.simulate_sampled ~trace:(Wish_emu.Trace.stream program) program in
  check Alcotest.string "auto spec"
    (Sampler.to_string (Sampler.auto ~length:(Wish_emu.Trace.length trace)))
    (Sampler.to_string r_stream.r_spec);
  Alcotest.(check bool) "same report" true (compare r r_stream = 0)

(* Fused (trace-free) warming --------------------------------------------------------- *)

let workload_program name =
  let bench = Wish_workloads.Workloads.find ~scale:1 name in
  let bins =
    Wish_compiler.Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
      ~profile_data:(Wish_workloads.Bench.profile_data bench) bench.ast
  in
  Wish_workloads.Bench.program_for bench
    (Wish_compiler.Compiler.binary bins Wish_compiler.Policy.Wish_jjl)
    "A"

(* Every observable the detailed core reads of a warm state, as text, the
   hybrid's prediction, BTB presence, confidence and loop prediction at
   every pc, then the return-address stack and the hierarchy stats: the
   digest the pins below compare. Probes refresh LRU recency and drain
   the stack, so the state is throwaway. *)
let warm_observables n (w : Compiled.warm_state) =
  let module H = Wish_bpred.Hybrid in
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let gh = H.global_history w.Compiled.warm_hybrid in
  add "gh %d\n" gh;
  let l = H.fresh_lbuf () in
  for pc = 0 to n - 1 do
    H.predict_into w.Compiled.warm_hybrid ~pc l;
    add "%d %b%b%b %d %d %d %b %b %d\n" pc l.H.b_taken l.H.b_g_taken l.H.b_p_taken l.H.b_g_index
      l.H.b_p_index l.H.b_s_index
      (Wish_bpred.Btb.hit w.Compiled.warm_btb ~pc)
      (Wish_bpred.Confidence.is_high_confidence w.Compiled.warm_conf ~pc ~history:gh)
      (Wish_bpred.Loop_pred.predict_code w.Compiled.warm_loop ~pc)
  done;
  let r = w.Compiled.warm_ras in
  for _ = 1 to Wish_bpred.Ras.capacity r do
    add "ras %d\n" (Wish_bpred.Ras.pop r)
  done;
  let m = Wish_mem.Hierarchy.stats w.Compiled.warm_hier in
  add "mem %d %d %d %d %d %d\n" m.l1i_accesses m.l1i_misses m.l1d_accesses m.l1d_misses
    m.l2_accesses m.l2_misses;
  Buffer.contents b

(* Calls in a loop: the return lands mid-line on straight-line code that
   runs to the end of the caller's I-line, and the first probe falls
   inside the callee, with a return address on the stack. The workloads
   make few calls, so without it no pin would see a return landing that
   skips its I-line touch or a wrong return address. *)
let call_kernel =
  Program.create ~mem_words:64
    (Asm.assemble
       (Asm.[ movi 3 0; label "loop"; call "f" ]
       @ List.init 14 (fun _ -> Asm.alu Inst.Add 4 4 (Inst.Imm 1))
       @ Asm.[
           alu Inst.Add 3 3 (Inst.Imm 1);
           cmp Inst.Lt 1 3 (Inst.Imm 100);
           br ~guard:1 "loop";
           halt;
           label "f";
           alu Inst.Add 5 5 (Inst.Imm 1);
           ret ();
         ]))

(* The fused warm state of every paper workload (scale 1) and of
   [call_kernel], with and without the wish hardware (the two sides
   exercise disjoint branch-hook shapes), probed mid-trace and at
   end-of-trace: one MD5 per program over the four probes. The pins were
   taken while a per-entry warming loop over the trace still existed and
   landed the same states. Re-pin by hand after a change meant to move
   warm state. *)
let warm_pins =
  [
    ("gzip", "8ef0654d441794de54a2f0e225cdac6a");
    ("vpr", "3dea9cc4569dcafb1aa4f9d42510b4a5");
    ("mcf", "b2e08b18d4c5410b08245e6aca703651");
    ("crafty", "004f90a8cc6dedca548b6ce9906b7750");
    ("parser", "7dc46b1d07110285743547e855fec6aa");
    ("gap", "a5d3b2864cfe298438551cb73045dce3");
    ("vortex", "3b519156908ac9b6b64a956c9741c440");
    ("bzip2", "169c81be218694e84df962738d0ee14d");
    ("twolf", "8b28c43a3d969d2884eaebd97e3f2b05");
    ("calls", "67b1ea1cb5dfbbdffbdd1a17b07645c7");
  ]

let test_fused_warm_state_pins () =
  let length p = Wish_emu.Trace.length (fst (Wish_emu.Trace.generate p)) in
  let digest (name, program, probes) =
    let n = Code.length (Program.code program) in
    let text =
      String.concat ""
        (List.concat_map
           (fun config ->
             List.map (fun i -> warm_observables n (Sampler.fused_warm_state_at ~config program i)) probes)
           [ Config.default; { Config.default with wish_hardware = false } ])
    in
    (name, Digest.to_hex (Digest.string text))
  in
  (* Entry 1 + 20k is iteration k's call, so 1003 lands after the callee's
     first instruction in iteration 50. *)
  let cases =
    List.map
      (fun name ->
        let p = workload_program name in
        let total = length p in
        (name, p, [ total / 2; total ]))
      Wish_workloads.Workloads.names
    @ [ ("calls", call_kernel, [ 1003; length call_kernel ]) ]
  in
  Alcotest.(check (list (pair string string))) "warm-state digests" warm_pins (List.map digest cases)

let test_fused_report_identical () =
  (* A materialized trace replays every entry into the warm hooks, a
     caller-supplied streamed one mostly runs them fused, and no trace
     entirely fused: all three reports must match bit for bit. *)
  let program, trace = Lazy.force sampled_fixture in
  let config = Config.default in
  let run ?trace () = Sampler.run ?trace ~config ~spec:sampled_spec program in
  let r = run ~trace () in
  let streamed = run ~trace:(Wish_emu.Trace.stream ~chunk_bits:10 program) () in
  let fused = run () in
  (* [compare], not [=]: an equal-but-NaN CI still counts as identical. *)
  Alcotest.(check bool) "streamed report bit-identical" true (compare streamed r = 0);
  Alcotest.(check bool) "fused report bit-identical" true (compare fused r = 0)

let test_fused_parallel_identical () =
  let program, _ = Lazy.force sampled_fixture in
  let config = Config.default in
  let serial = Sampler.run ~config ~spec:sampled_spec program in
  let pool = Wish_util.Pool.create ~size:2 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Wish_util.Pool.shutdown pool)
      (fun () -> Sampler.run ~pool ~config ~spec:sampled_spec program)
  in
  Alcotest.(check bool) "pooled fused run identical" true (compare parallel serial = 0)

(* Machine ownership -------------------------------------------------------- *)

(* Each core builds its own predictor and cache tables, so a domain
   carries nothing from one run to the next: after runs under another ROB
   size, knob set, wish-hardware setting or confidence threshold, each
   run equals the same run on a fresh domain. *)
let test_run_equals_fresh_domain () =
  let program =
    Program.create ~mem_words:(1 lsl 14) ~data:coin_data
      (Asm.assemble (hammock_kernel ~wish:true ~iters:2000))
  in
  let run config =
    let s = Runner.simulate ~config program in
    (s.cycles, s.counts)
  in
  let fresh config = Domain.join (Domain.spawn (fun () -> run config)) in
  let d = Config.default in
  let threshold = { d with conf = { d.conf with threshold = 3 } } in
  Alcotest.(check bool) "the threshold changes the run" true (fresh threshold <> fresh d);
  List.iter
    (fun (label, config) ->
      check Alcotest.(pair int counters) label (fresh config) (run config))
    [
      ("default", d);
      ("ROB 256", Config.with_rob d 256);
      ("ROB 512 again", d);
      ("perfect confidence", { d with knobs = { Config.no_knobs with perfect_conf = true } });
      ("no wish hardware", { d with wish_hardware = false });
      ("confidence threshold 3", threshold);
      ("default again", d);
    ]

(* Two whole-run cores alive on one domain, created before either runs
   and stepped alternately, each equal their solo runs: no table is
   shared between cores. *)
let test_two_cores_one_domain () =
  let program wish iters =
    Program.create ~mem_words:(1 lsl 14) ~data:coin_data (Asm.assemble (hammock_kernel ~wish ~iters))
  in
  let programs = [ program true 1500; program false 1000 ] in
  let traces = List.map (fun p -> fst (Wish_emu.Trace.generate p)) programs in
  let longest = List.fold_left (fun n tr -> max n (Wish_emu.Trace.length tr)) 0 traces in
  let cores = List.map2 (Compiled.create Config.default) programs traces in
  let rec alternate stop =
    List.iter (fun c -> ignore (Compiled.run_until c ~stop_idx:stop)) cores;
    if stop < longest then alternate (stop + 256)
  in
  alternate 256;
  List.iteri
    (fun i (p, c) ->
      let c = Compiled.run c and solo = Runner.simulate p in
      let what = Printf.sprintf "core %d" i in
      check Alcotest.int (what ^ ": cycles") solo.cycles (Compiled.cycles c);
      check counters (what ^ ": counters") solo.counts (Compiled.counters c);
      Alcotest.(check bool) (what ^ ": memory stats") true (solo.mem = Compiled.hier_stats c))
    (List.combine programs cores)

(* Unobservable config fields ---------------------------------------------- *)

(* [Config.observed]'s rule on real workloads: whenever it changes a
   table machine (or the default with one resettable field flipped) for
   one of a bench's binaries, the compiled core returns the same cycles,
   counters and memory stats under both configs, exactly and through
   [Sampler.run] at a dense spec. *)
let observed_spec = Sampler.spec ~warm:4000 ~detail:1000

let describe (c : Config.t) =
  Printf.sprintf
    "rob %d, depth %d, threshold %d, loop predictor %b, wish hardware %b, %s, knobs %b/%b/%b/%b"
    c.rob_size c.frontend_depth c.conf.threshold c.use_loop_predictor c.wish_hardware
    (match c.mech with Config.C_style -> "C-style" | Config.Select_uop -> "select-uop")
    c.knobs.perfect_bp c.knobs.perfect_conf c.knobs.no_depend c.knobs.no_fetch

let test_observed bench () =
  let lab = Wish_experiments.Lab.create ~names:[ bench ] () in
  let configs = Wish_fuzz.Oracle.machine_configs () in
  let checked = ref 0 in
  let seen = ref [] in
  List.iter
    (fun kind ->
      let program = Wish_experiments.Lab.program lab ~bench ~kind ~input:"A" in
      let code = Program.code program in
      let wish = Code.static_wish_branches code > 0
      and predicated = Code.static_guarded_non_branches code > 0 in
      let pairs =
        List.filter_map
          (fun c ->
            let o = Config.observed ~wish ~predicated c in
            if o = c then None else Some (c, o))
          configs
      in
      if pairs <> [] && not (List.exists (Code.equal code) !seen) then begin
        seen := code :: !seen;
        let trace = fst (Wish_emu.Trace.generate program) in
        let runs = ref [] in
        let run c =
          match List.assoc_opt c !runs with
          | Some r -> r
          | None ->
            let r =
              ( Runner.simulate ~config:c ~trace program,
                Sampler.run ~trace ~config:c ~spec:observed_spec program )
            in
            runs := (c, r) :: !runs;
            r
        in
        List.iter
          (fun (c, o) ->
            let (s : Runner.summary), (r : Sampler.report) = run c and s', r' = run o in
            let what =
              Printf.sprintf "%s/%s under %s" bench (Wish_compiler.Policy.kind_name kind) (describe c)
            in
            check Alcotest.int (what ^ ": cycles") s'.cycles s.cycles;
            check counters (what ^ ": counters") s'.counts s.counts;
            Alcotest.(check bool) (what ^ ": memory stats") true (s'.mem = s.mem);
            check Alcotest.int (what ^ ": sampled cycles") r'.r_est_cycles r.r_est_cycles;
            check counters (what ^ ": sampled counters") r'.r_measured r.r_measured;
            Alcotest.(check bool) (what ^ ": sampled memory stats") true (r'.r_mem = r.r_mem);
            incr checked)
          pairs
      end)
    Wish_compiler.Compiler.all_kinds;
  Alcotest.(check bool) "some config is merged" true (!checked > 0)

let () =
  Alcotest.run "wish_sim"
    [
      ( "sanity",
        [
          Alcotest.test_case "terminates and counts" `Quick test_terminates_and_counts;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "uPC bounded" `Quick test_upc_bounded_by_width;
          Alcotest.test_case "NOP elimination" `Quick test_nops_eliminated;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "coin branch flushes" `Quick test_coin_branch_mispredicts_and_flushes;
          Alcotest.test_case "min penalty" `Quick test_min_misprediction_penalty;
          Alcotest.test_case "perfect bp" `Quick test_perfect_bp_never_flushes;
          Alcotest.test_case "pipeline depth monotone" `Quick
            test_deeper_pipeline_slower_on_hard_branches;
          Alcotest.test_case "window monotone" `Quick test_bigger_window_not_slower;
        ] );
      ( "wish",
        [
          Alcotest.test_case "low-conf no flush" `Quick test_low_conf_wish_never_flushes_jumps;
          Alcotest.test_case "beats normal on coin" `Quick test_wish_beats_normal_on_coin_branch;
          Alcotest.test_case "hardware off" `Quick test_wish_hardware_off_behaves_like_normal;
          Alcotest.test_case "perfect confidence" `Quick test_perfect_conf_dominates_real;
        ] );
      ( "wish_loop",
        [
          Alcotest.test_case "classification" `Quick test_wish_loop_classification;
          Alcotest.test_case "late-exit no flush" `Quick test_wish_loop_late_exit_no_flush;
          Alcotest.test_case "retirement equivalence" `Quick test_wish_loop_equivalent_retirement;
        ] );
      ( "knobs",
        [
          Alcotest.test_case "no-fetch" `Quick test_no_fetch_drops_false_uops;
          Alcotest.test_case "no-depend" `Quick test_no_depend_not_slower;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "matches materialized" `Quick test_streaming_matches_materialized;
          Alcotest.test_case "tiny chunks match" `Quick test_streaming_tiny_chunks_match;
          Alcotest.test_case "bounded residency" `Quick test_streaming_bounded_residency;
        ] );
      ("select", [ Alcotest.test_case "select-uop expands" `Quick test_select_uop_expands ]);
      ( "machine",
        [
          Alcotest.test_case "run = fresh domain" `Quick test_run_equals_fresh_domain;
          Alcotest.test_case "two cores, one domain" `Quick test_two_cores_one_domain;
        ] );
      ( "observed",
        List.map
          (fun bench -> Alcotest.test_case bench `Quick (test_observed bench))
          [ "mcf"; "vortex"; "twolf" ] );
      ( "fetch",
        [
          Alcotest.test_case "conditional branches per cycle" `Quick
            test_cond_branches_per_fetch_cycle;
        ] );
      ("icache", [ Alcotest.test_case "cold stall" `Quick test_icache_cold_stalls_counted ]);
      ( "sampling",
        [
          Alcotest.test_case "report well-formed" `Quick test_sampler_report_well_formed;
          Alcotest.test_case "headline = its counter" `Quick test_sampled_headline_is_its_counter;
          Alcotest.test_case "parallel == serial" `Quick test_sampler_parallel_identical;
          Alcotest.test_case "tiny trace is exact" `Quick test_sampler_tiny_trace_is_exact;
          Alcotest.test_case "streamed auto spec" `Quick test_sampler_stream_auto_spec;
        ] );
      ( "fused",
        [
          Alcotest.test_case "warm-state pins" `Quick test_fused_warm_state_pins;
          Alcotest.test_case "report identical" `Quick test_fused_report_identical;
          Alcotest.test_case "parallel == serial" `Quick test_fused_parallel_identical;
        ] );
    ]
