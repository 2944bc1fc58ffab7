(* Unit tests for the simulator's internal components: the oracle cursor
   (matching and skip rules), the wish-branch front-end state machine, the
   completion event wheel, the µop branch record, the event counters and
   the config hash. *)

open Wish_isa
open Wish_sim

let check = Alcotest.check

(* Oracle ----------------------------------------------------------------- *)

(* Figure 3c hammock with a spec-marked temp computation in the jumped-over
   block, plus a tail. Condition true: block B (pc 3-5) is skippable. *)
let hammock_program =
  Program.create ~mem_words:64
    (Asm.assemble
       Asm.[
         movi 3 1; (* 0 *)
         cmp Inst.Eq ~dst_false:2 1 3 (Inst.Imm 1); (* 1 *)
         wish_jump ~guard:1 "then_"; (* 2 *)
         movi ~spec:true 10 0; (* 3: speculated temp *)
         alu ~guard:2 Inst.Add 4 4 (Inst.Reg 10); (* 4 *)
         wish_join ~guard:2 "join"; (* 5 *)
         label "then_";
         movi ~guard:1 4 7; (* 6 *)
         label "join";
         store 4 0 9; (* 7 *)
         halt; (* 8 *)
       ])

let make_oracle () =
  let trace, _ = Wish_emu.Trace.generate hammock_program in
  Oracle.create (Program.code hammock_program) trace

(* One match attempt into a fresh buffer: [Some] the matched entry. *)
let consume o ~pc =
  let e = Oracle.fresh_ebuf () in
  if Oracle.consume_into o ~pc e then Some e else None

let test_oracle_sequential_match () =
  let o = make_oracle () in
  (match consume o ~pc:0 with
  | Some e ->
    Alcotest.(check bool) "guard true" true e.Oracle.b_guard_true;
    check Alcotest.int "next pc" 1 e.b_next_pc;
    check Alcotest.int "index" 0 e.b_index
  | None -> Alcotest.fail "expected match");
  check Alcotest.int "cursor advanced" 1 (Oracle.cursor o)

let test_oracle_skips_wish_region () =
  let o = make_oracle () in
  ignore (consume o ~pc:0);
  ignore (consume o ~pc:1);
  (* The wish jump entry: actual direction taken (guard true). *)
  (match consume o ~pc:2 with
  | Some e -> Alcotest.(check bool) "jump direction" true e.Oracle.b_taken
  | None -> Alcotest.fail "jump entry");
  (* Predicted-taken fetch goes straight to pc 6, skipping the spec temp
     (pc 3, guard-true but spec), the false-guarded add (4) and the
     false-guarded join (5). *)
  (match consume o ~pc:6 with
  | Some e ->
    Alcotest.(check bool) "then side is real work" true e.Oracle.b_guard_true;
    check Alcotest.int "three entries skipped" 6 e.b_index
  | None -> Alcotest.fail "skip-match failed");
  match consume o ~pc:7 with
  | Some _ -> ()
  | None -> Alcotest.fail "tail after skip"

let test_oracle_divergence_no_side_effect () =
  let o = make_oracle () in
  ignore (consume o ~pc:0);
  let cursor = Oracle.cursor o in
  Alcotest.(check bool) "bogus pc diverges" true (consume o ~pc:7 = None);
  check Alcotest.int "cursor unchanged" cursor (Oracle.cursor o)

let test_oracle_restore () =
  let o = make_oracle () in
  ignore (consume o ~pc:0);
  ignore (consume o ~pc:1);
  let saved = Oracle.cursor o in
  ignore (consume o ~pc:2);
  Oracle.restore o saved;
  match consume o ~pc:2 with
  | Some _ -> ()
  | None -> Alcotest.fail "replay after restore"

let test_oracle_exhaustion () =
  let o = make_oracle () in
  let rec drain pc = match consume o ~pc with Some e -> drain e.Oracle.b_next_pc | None -> () in
  drain 0;
  check Alcotest.int "every entry consumed" (Oracle.length o) (Oracle.cursor o);
  Alcotest.(check bool) "nothing left to match" true (consume o ~pc:0 = None)

(* Wish FSM ------------------------------------------------------------------ *)

let test_fsm_high_confidence_forwards () =
  let fsm = Wish_fsm.create () in
  (* Teach the complement relation as the decoder would. *)
  Wish_fsm.decode_write fsm 1;
  Wish_fsm.decode_write fsm 2;
  Wish_fsm.set_complement fsm ~pt:1 ~pf:2;
  let dir =
    Wish_fsm.on_wish_branch fsm ~kind:Inst.Wish_jump ~pc:10 ~target:20 ~conf_high:true
      ~predictor_dir:true ~guard:1
  in
  Alcotest.(check bool) "follows predictor" true dir;
  Alcotest.(check bool) "mode high" true (Wish_fsm.mode fsm = Uop.High_conf);
  check Alcotest.int "guard forwarded TRUE" 1 (Wish_fsm.forwarded_code fsm 1);
  check Alcotest.int "complement forwarded FALSE" 0 (Wish_fsm.forwarded_code fsm 2)

let test_fsm_low_confidence_forces_not_taken () =
  let fsm = Wish_fsm.create () in
  let dir =
    Wish_fsm.on_wish_branch fsm ~kind:Inst.Wish_jump ~pc:10 ~target:20 ~conf_high:false
      ~predictor_dir:true ~guard:1
  in
  Alcotest.(check bool) "forced not-taken" false dir;
  Alcotest.(check bool) "mode low" true (Wish_fsm.mode fsm = Uop.Low_conf);
  check Alcotest.int "no forwarding in low mode" (-1) (Wish_fsm.forwarded_code fsm 1);
  (* A join inside the region is forced not-taken regardless of its own
     estimate (Table 1). *)
  let join_dir =
    Wish_fsm.on_wish_branch fsm ~kind:Inst.Wish_join ~pc:15 ~target:25 ~conf_high:true
      ~predictor_dir:true ~guard:2
  in
  Alcotest.(check bool) "join forced not-taken" false join_dir

let test_fsm_target_fetched_exits_low_mode () =
  let fsm = Wish_fsm.create () in
  ignore
    (Wish_fsm.on_wish_branch fsm ~kind:Inst.Wish_jump ~pc:10 ~target:20 ~conf_high:false
       ~predictor_dir:true ~guard:1);
  Wish_fsm.on_fetch_pc fsm ~pc:19;
  Alcotest.(check bool) "still low before target" true (Wish_fsm.mode fsm = Uop.Low_conf);
  Wish_fsm.on_fetch_pc fsm ~pc:20;
  Alcotest.(check bool) "normal at target" true (Wish_fsm.mode fsm = Uop.Normal)

let test_fsm_decode_write_invalidates_forwarding () =
  let fsm = Wish_fsm.create () in
  ignore
    (Wish_fsm.on_wish_branch fsm ~kind:Inst.Wish_loop ~pc:10 ~target:5 ~conf_high:true
       ~predictor_dir:true ~guard:1);
  Alcotest.(check bool) "forwarded" true (Wish_fsm.forwarded_code fsm 1 <> -1);
  Wish_fsm.decode_write fsm 1;
  check Alcotest.int "invalidated by write" (-1) (Wish_fsm.forwarded_code fsm 1)

let test_fsm_loop_generations () =
  let fsm = Wish_fsm.create () in
  check Alcotest.int "initial generation" 0 (Wish_fsm.loop_generation fsm ~pc:10);
  Wish_fsm.record_loop_prediction fsm ~pc:10 ~dir:true;
  Wish_fsm.record_loop_prediction fsm ~pc:10 ~dir:true;
  check Alcotest.int "taken keeps generation" 0 (Wish_fsm.loop_generation fsm ~pc:10);
  Wish_fsm.record_loop_prediction fsm ~pc:10 ~dir:false;
  check Alcotest.int "exit bumps generation" 1 (Wish_fsm.loop_generation fsm ~pc:10);
  check Alcotest.int "last prediction's generation" 1 (Wish_fsm.last_loop_gen fsm ~pc:10);
  Alcotest.(check bool) "last prediction's direction" false (Wish_fsm.last_loop_dir fsm ~pc:10)

let test_fsm_loop_exit_leaves_low_mode () =
  let fsm = Wish_fsm.create () in
  ignore
    (Wish_fsm.on_wish_branch fsm ~kind:Inst.Wish_loop ~pc:10 ~target:5 ~conf_high:false
       ~predictor_dir:true ~guard:1);
  Alcotest.(check bool) "low while looping" true (Wish_fsm.mode fsm = Uop.Low_conf);
  Wish_fsm.record_loop_prediction fsm ~pc:10 ~dir:false;
  Alcotest.(check bool) "normal after predicted exit" true (Wish_fsm.mode fsm = Uop.Normal)

let test_fsm_reset () =
  let fsm = Wish_fsm.create () in
  ignore
    (Wish_fsm.on_wish_branch fsm ~kind:Inst.Wish_jump ~pc:10 ~target:20 ~conf_high:true
       ~predictor_dir:true ~guard:1);
  Wish_fsm.record_loop_prediction fsm ~pc:11 ~dir:true;
  Wish_fsm.reset fsm;
  Alcotest.(check bool) "mode normal" true (Wish_fsm.mode fsm = Uop.Normal);
  check Alcotest.int "forwarding cleared" (-1) (Wish_fsm.forwarded_code fsm 1);
  check Alcotest.int "loop buffer cleared" (-1) (Wish_fsm.last_loop_gen fsm ~pc:11)

(* The wish-loop misprediction classes (paper Section 3.2): a resolved
   low-confidence wish loop classifies as early-exit (actual taken — the
   loop must run longer), late-exit (the front end already finished that
   visit) or no-exit (the front end is still fetching the visit). The
   cores decide late vs no-exit from the FSM's per-static-loop generation
   and last-direction buffers; this test pins those observations for each
   class, across a loop re-entry (the footnote-8 case). *)
let test_fsm_loop_classes () =
  let fsm = Wish_fsm.create () in
  let pc = 10 in
  (* Visit 0: the front end predicts iterate, iterate. A branch from this
     visit resolving not-taken while gen is still 0 and the last
     prediction is an iterate sees (gen = its own, dir = taken): the
     front end has not exited — Lc_no_exit. *)
  let g0 = Wish_fsm.loop_generation fsm ~pc in
  check Alcotest.int "first visit generation" 0 g0;
  Wish_fsm.record_loop_prediction fsm ~pc ~dir:true;
  Wish_fsm.record_loop_prediction fsm ~pc ~dir:true;
  Alcotest.(check bool) "no-exit: same generation" true (Wish_fsm.last_loop_gen fsm ~pc = g0);
  Alcotest.(check bool) "no-exit: still iterating" true (Wish_fsm.last_loop_dir fsm ~pc);
  (* The front end predicts the exit: the visit closes. A branch from
     visit 0 now sees dir = not-taken — Lc_late (extra iterations flow
     through as NOPs; no flush). *)
  Wish_fsm.record_loop_prediction fsm ~pc ~dir:false;
  Alcotest.(check bool) "late: exit recorded" true (not (Wish_fsm.last_loop_dir fsm ~pc));
  (* Re-entry: the next visit's generation is bumped, so a stale branch
     from visit 0 sees gen > its own even while the new visit iterates —
     still Lc_late, not no-exit (footnote 8). *)
  Wish_fsm.record_loop_prediction fsm ~pc ~dir:true;
  let g1 = Wish_fsm.loop_generation fsm ~pc in
  Alcotest.(check bool) "re-entry bumps generation" true (g1 > g0);
  Alcotest.(check bool) "late across re-entry: gen moved on" true
    (Wish_fsm.last_loop_gen fsm ~pc > g0);
  (* Lc_early needs no front-end observation: the branch's own actual
     direction (taken = the loop must keep iterating) forces the flush
     regardless of generation. Pin the classification predicate's other
     half: a fresh static loop with no recorded prediction reads gen -1,
     which also classifies late (the visit is long gone). *)
  check Alcotest.int "unseen loop reads gen -1" (-1) (Wish_fsm.last_loop_gen fsm ~pc:99)

(* Calendar wheel -------------------------------------------------------------- *)

(* Latencies at and beyond the horizon: events exactly at [now + horizon],
   just under it, several rotations out, and bursts sharing one far cycle
   must all fire exactly at their due cycle, in ascending-id order. *)
let test_wheel_overflow_latencies () =
  let w = Wheel.create ~horizon:1024 in
  check Alcotest.int "horizon under test" 1024 (Wheel.horizon w);
  let fired = ref [] in
  let expect = Hashtbl.create 16 in
  let schedule ~now ~due ~id =
    Wheel.schedule w ~now ~due ~id;
    Hashtbl.replace expect id due
  in
  (* From cycle 0: just inside the horizon, the exact boundary, just
     past it, and multiple rotations out. *)
  schedule ~now:0 ~due:1023 ~id:1;
  schedule ~now:0 ~due:1024 ~id:2;
  schedule ~now:0 ~due:1025 ~id:3;
  schedule ~now:0 ~due:5000 ~id:4;
  (* A far burst sharing one due cycle, scheduled in descending id order
     to exercise the drain-time sort. *)
  for k = 0 to 9 do
    schedule ~now:0 ~due:2500 ~id:(20 - k)
  done;
  (* From a nonzero now: the same-rotation far case (due in rotation 1
     while now is late in rotation 0) and a boundary case landing on a
     rotation-start cycle. *)
  schedule ~now:1000 ~due:2047 ~id:30;
  schedule ~now:1000 ~due:2048 ~id:31;
  for now = 1 to 6000 do
    Wheel.drain w ~now ~f:(fun id -> fired := (now, id) :: !fired)
  done;
  let fired = List.rev !fired in
  check Alcotest.int "every event fired exactly once" (Hashtbl.length expect)
    (List.length fired);
  List.iter
    (fun (now, id) ->
      match Hashtbl.find_opt expect id with
      | Some due -> check Alcotest.int (Printf.sprintf "id %d fires at its due" id) due now
      | None -> Alcotest.failf "unexpected event id %d at cycle %d" id now)
    fired;
  (* Ascending-id order within a cycle. *)
  ignore
    (List.fold_left
       (fun (prev_now, prev_id) (now, id) ->
         if now = prev_now then
           Alcotest.(check bool)
             (Printf.sprintf "ascending ids at cycle %d" now)
             true (id > prev_id);
         (now, id))
       (-1, -1) fired)

(* An event rescheduled from within a drain callback (dependent wakeups)
   must land in a later cycle, including across the horizon. *)
let test_wheel_reschedule_from_drain () =
  let w = Wheel.create ~horizon:1024 in
  Wheel.schedule w ~now:0 ~due:10 ~id:1;
  let second = ref (-1) in
  for now = 1 to 3000 do
    Wheel.drain w ~now ~f:(fun id ->
        if id = 1 then Wheel.schedule w ~now ~due:(now + 1024) ~id:2
        else if id = 2 then second := now)
  done;
  check Alcotest.int "chained far event fires at due" 1034 !second

(* Random schedules against a naive model. A case is a horizon and a list
   of events [(at, delay, child)]: the event is scheduled at cycle [at]
   (after that cycle's drain, as the issue stage does) for [at + delay];
   a [Some d] child is scheduled from inside the drain that fires its
   parent, for [d] cycles later. Delays are near (under the horizon),
   exactly the horizon, or past it, so far events cross rotations. The
   model is the sorted list of (due, id): the wheel must fire every id
   exactly once, at its due cycle, ascending by id within a cycle. *)
let wheel_case_gen =
  let open QCheck.Gen in
  let* bits = int_range 1 6 in
  let horizon = 1 lsl bits in
  let delay =
    frequency
      [
        (3, int_range 1 (horizon - 1));
        (1, return horizon);
        (2, int_range (horizon + 1) (4 * horizon));
      ]
  in
  let* events = list_size (int_range 1 40) (triple (int_range 0 (3 * horizon)) delay (opt delay)) in
  let n = List.length events in
  (* Ids: a random permutation, so neither the scheduling order nor the
     due order follows the id order. *)
  let* ids = shuffle_l (List.init (2 * n) Fun.id) in
  let parents = List.filteri (fun i _ -> i < n) ids
  and children = List.filteri (fun i _ -> i >= n) ids in
  return
    ( horizon,
      List.map2 (fun (at, d, c) (pid, cid) -> (at, d, pid, Option.map (fun cd -> (cid, cd)) c))
        events (List.combine parents children) )

let print_wheel_case (horizon, events) =
  Printf.sprintf "horizon %d: %s" horizon
    (String.concat "; "
       (List.map
          (fun (at, d, id, c) ->
            Printf.sprintf "id %d at %d +%d%s" id at d
              (match c with Some (cid, cd) -> Printf.sprintf " -> id %d +%d" cid cd | None -> ""))
          events))

let prop_wheel_model =
  QCheck.Test.make ~name:"wheel fires like a sorted list" ~count:300
    (QCheck.make ~print:print_wheel_case wheel_case_gen) (fun (horizon, events) ->
      let expected =
        List.concat_map
          (fun (at, d, id, c) ->
            (at + d, id) :: (match c with Some (cid, cd) -> [ (at + d + cd, cid) ] | None -> []))
          events
        |> List.sort compare
      in
      let children = Hashtbl.create 16 in
      List.iter
        (fun (_, _, id, c) -> Option.iter (fun child -> Hashtbl.replace children id child) c)
        events;
      let w = Wheel.create ~horizon in
      let fired = ref [] in
      let last = List.fold_left (fun m (due, _) -> max m due) 0 expected in
      for now = 0 to last do
        Wheel.drain w ~now ~f:(fun id ->
            fired := (now, id) :: !fired;
            match Hashtbl.find_opt children id with
            | Some (cid, cd) -> Wheel.schedule w ~now ~due:(now + cd) ~id:cid
            | None -> ());
        List.iter
          (fun (at, d, id, _) -> if at = now then Wheel.schedule w ~now ~due:(now + d) ~id)
          events
      done;
      List.rev !fired = expected)

(* Uop ----------------------------------------------------------------------- *)

let branch_rec ~predicted ~actual ~is_return ~target ~next : Uop.branch_rec =
  let b =
    match (Uop.fresh ~branch:true).br with Some b -> b | None -> assert false
  in
  b.Uop.predicted_taken <- predicted;
  b.predicted_target <- target;
  b.actual_taken <- actual;
  b.actual_next <- next;
  b.is_return <- is_return;
  b

let test_uop_mispredicted () =
  Alcotest.(check bool) "direction wrong" true
    (Uop.mispredicted (branch_rec ~predicted:true ~actual:false ~is_return:false ~target:5 ~next:1));
  Alcotest.(check bool) "direction right" false
    (Uop.mispredicted (branch_rec ~predicted:true ~actual:true ~is_return:false ~target:5 ~next:5));
  Alcotest.(check bool) "return target wrong" true
    (Uop.mispredicted (branch_rec ~predicted:true ~actual:true ~is_return:true ~target:5 ~next:9));
  Alcotest.(check bool) "return target right" false
    (Uop.mispredicted (branch_rec ~predicted:true ~actual:true ~is_return:true ~target:9 ~next:9))

(* Counters ------------------------------------------------------------------ *)

(* Every index has one name, and no two indices share one: a counter
   declared twice under one name would print, and read in figures, as
   two rows with one label. *)
let test_counters_names () =
  let names = List.map Counters.name Counters.all in
  check Alcotest.int "distinct names" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "no empty name" true (List.for_all (fun n -> n <> "") names);
  let lines = String.split_on_char '\n' (Format.asprintf "%a" Counters.pp (Counters.create ())) in
  check Alcotest.int "pp prints one line per counter" (List.length names)
    (List.length (List.filter (( <> ) "") lines))

let test_counters_arithmetic () =
  let c = Counters.create () in
  Counters.incr c Counters.flushes;
  Counters.add c Counters.flushes 4;
  Counters.add c Counters.wish_retired 7;
  check Alcotest.int "incr and add" 5 (Counters.get c Counters.flushes);
  check Alcotest.int "untouched is 0" 0 (Counters.get c Counters.loop_low_late);
  let before = Counters.copy c in
  Counters.incr c Counters.flushes;
  check Alcotest.int "a copy is a snapshot" 5 (Counters.get before Counters.flushes);
  let d = Counters.diff c before in
  check Alcotest.int "diff" 1 (Counters.get d Counters.flushes);
  check Alcotest.int "diff of an unchanged counter" 0 (Counters.get d Counters.wish_retired);
  let s = Counters.sum [ c; before; d ] in
  check Alcotest.int "sum" 12 (Counters.get s Counters.flushes);
  check Alcotest.int "empty sum" 0 (Counters.get (Counters.sum []) Counters.flushes)

(* Config hash ------------------------------------------------------------------ *)

(* Equal configs hash alike however they were built, and every machine
   the tables use hashes apart from the others: most of them differ only
   in fields past the tenth value [Hashtbl.hash] reads. *)
let test_config_hash () =
  check Alcotest.int "a rebuilt default" (Config.hash Config.default)
    (Config.hash (Config.with_rob Config.default 512));
  let configs = List.sort_uniq compare (Wish_fuzz.Oracle.machine_configs ()) in
  check Alcotest.int "distinct configs, distinct hashes" (List.length configs)
    (List.length (List.sort_uniq compare (List.map Config.hash configs)))

let () =
  Alcotest.run "wish_sim_units"
    [
      ( "oracle",
        [
          Alcotest.test_case "sequential match" `Quick test_oracle_sequential_match;
          Alcotest.test_case "skips wish region" `Quick test_oracle_skips_wish_region;
          Alcotest.test_case "divergence side-effect free" `Quick
            test_oracle_divergence_no_side_effect;
          Alcotest.test_case "restore" `Quick test_oracle_restore;
          Alcotest.test_case "exhaustion" `Quick test_oracle_exhaustion;
        ] );
      ( "wish_fsm",
        [
          Alcotest.test_case "high confidence forwards" `Quick test_fsm_high_confidence_forwards;
          Alcotest.test_case "low confidence forces NT" `Quick
            test_fsm_low_confidence_forces_not_taken;
          Alcotest.test_case "target fetched exits low" `Quick
            test_fsm_target_fetched_exits_low_mode;
          Alcotest.test_case "decode write invalidates" `Quick
            test_fsm_decode_write_invalidates_forwarding;
          Alcotest.test_case "loop generations" `Quick test_fsm_loop_generations;
          Alcotest.test_case "loop exit leaves low" `Quick test_fsm_loop_exit_leaves_low_mode;
          Alcotest.test_case "reset" `Quick test_fsm_reset;
          Alcotest.test_case "loop misprediction classes" `Quick test_fsm_loop_classes;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "overflow latencies" `Quick test_wheel_overflow_latencies;
          Alcotest.test_case "reschedule from drain" `Quick test_wheel_reschedule_from_drain;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_wheel_model;
        ] );
      ("uop", [ Alcotest.test_case "mispredicted" `Quick test_uop_mispredicted ]);
      ( "counters",
        [
          Alcotest.test_case "names" `Quick test_counters_names;
          Alcotest.test_case "arithmetic" `Quick test_counters_arithmetic;
        ] );
      ("config", [ Alcotest.test_case "hash reads every field" `Quick test_config_hash ]);
    ]
