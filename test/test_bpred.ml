(* Tests for the branch-prediction library. *)

open Wish_bpred

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest ~speed_level:`Quick t

(* Gshare ---------------------------------------------------------------- *)

let gshare_train g ~pc ~history ~taken = Gshare.train_at g (Gshare.index g ~pc ~history) ~taken
let gshare_predict g ~pc ~history = Gshare.predict_at g (Gshare.index g ~pc ~history)

let test_gshare_learns_bias () =
  let g = Gshare.create ~index_bits:10 in
  for _ = 1 to 10 do
    gshare_train g ~pc:100 ~history:0 ~taken:true
  done;
  Alcotest.(check bool) "learned taken" true (gshare_predict g ~pc:100 ~history:0);
  for _ = 1 to 10 do
    gshare_train g ~pc:100 ~history:0 ~taken:false
  done;
  Alcotest.(check bool) "relearned not-taken" false (gshare_predict g ~pc:100 ~history:0)

let test_gshare_history_disambiguates () =
  let g = Gshare.create ~index_bits:10 in
  for _ = 1 to 8 do
    gshare_train g ~pc:5 ~history:0b1010 ~taken:true;
    gshare_train g ~pc:5 ~history:0b0101 ~taken:false
  done;
  Alcotest.(check bool) "ctx1 taken" true (gshare_predict g ~pc:5 ~history:0b1010);
  Alcotest.(check bool) "ctx2 not" false (gshare_predict g ~pc:5 ~history:0b0101)

(* PAs -------------------------------------------------------------------- *)

let test_pas_learns_period () =
  let p = Pas.create ~bht_bits:6 ~hist_bits:8 ~pht_bits:14 in
  let pattern = [ true; true; false ] in
  let step ~taken =
    let idx = Pas.predict_index p ~pc:7 in
    let predicted = Pas.taken_at p idx in
    Pas.train_at p idx ~taken;
    ignore (Pas.spec_update p ~pc:7 ~taken);
    predicted
  in
  for _ = 1 to 60 do
    List.iter (fun taken -> ignore (step ~taken)) pattern
  done;
  let correct = ref 0 in
  for _ = 1 to 10 do
    List.iter (fun taken -> if step ~taken = taken then incr correct) pattern
  done;
  Alcotest.(check bool) "period learned (>= 28/30)" true (!correct >= 28)

let test_pas_restore () =
  let p = Pas.create ~bht_bits:4 ~hist_bits:6 ~pht_bits:10 in
  let h0 = Pas.local_history p ~pc:3 in
  let old = Pas.spec_update p ~pc:3 ~taken:true in
  Pas.restore p ~pc:3 ~old;
  check Alcotest.int "restored" h0 (Pas.local_history p ~pc:3)

(* Hybrid ------------------------------------------------------------------ *)

(* The core's protocol on one branch: predict, shift the predicted
   direction, correct on a misprediction (the flush path), train at
   retirement. Returns whether the prediction was right. *)
let step h ~pc ~taken =
  let l = Hybrid.fresh_lbuf () and sn = Hybrid.fresh_sbuf () in
  Hybrid.predict_into h ~pc l;
  Hybrid.spec_update_into h ~pc ~dir:l.Hybrid.b_taken sn;
  if l.Hybrid.b_taken <> taken then Hybrid.correct_b h sn ~dir:taken;
  Hybrid.train_b h l ~taken;
  l.Hybrid.b_taken = taken

let train_stream h ~pc outcomes = List.iter (fun taken -> ignore (step h ~pc ~taken)) outcomes

let accuracy h ~pc outcomes =
  let correct = List.length (List.filter (fun taken -> step h ~pc ~taken) outcomes) in
  float_of_int correct /. float_of_int (List.length outcomes)

let test_hybrid_biased_branch () =
  let h = Hybrid.create Hybrid.default_config in
  let stream = List.init 200 (fun _ -> true) in
  train_stream h ~pc:11 stream;
  Alcotest.(check bool) "always-taken >99%" true (accuracy h ~pc:11 stream > 0.99)

let test_hybrid_pattern_branch () =
  let h = Hybrid.create Hybrid.default_config in
  let pattern = List.concat (List.init 100 (fun _ -> [ true; true; true; false ])) in
  train_stream h ~pc:13 pattern;
  Alcotest.(check bool) "period-4 loop learned" true (accuracy h ~pc:13 pattern > 0.9)

let spec h ~pc ~dir =
  let sn = Hybrid.fresh_sbuf () in
  Hybrid.spec_update_into h ~pc ~dir sn;
  sn

let test_hybrid_snapshot_roundtrip () =
  let h = Hybrid.create Hybrid.default_config in
  train_stream h ~pc:3 [ true; false; true ];
  let before = Hybrid.global_history h in
  let s1 = spec h ~pc:3 ~dir:true in
  let s2 = spec h ~pc:4 ~dir:false in
  Alcotest.(check bool) "history moved" true (Hybrid.global_history h <> before);
  Hybrid.restore_b h s2;
  Hybrid.restore_b h s1;
  check Alcotest.int "history restored" before (Hybrid.global_history h)

let prop_hybrid_restore_stack =
  QCheck.Test.make ~name:"hybrid restore undoes any update stack" ~count:100
    QCheck.(list (pair (int_range 0 63) bool))
    (fun updates ->
      let h = Hybrid.create Hybrid.default_config in
      ignore (spec h ~pc:1 ~dir:true);
      let before = Hybrid.global_history h in
      let snaps = List.map (fun (pc, dir) -> spec h ~pc ~dir) updates in
      List.iter (Hybrid.restore_b h) (List.rev snaps);
      Hybrid.global_history h = before)

(* Small tables, so random pcs alias in every component. *)
let small_config =
  { Hybrid.gshare_bits = 6; pas_bht_bits = 3; pas_hist_bits = 3; pas_pht_bits = 6; selector_bits = 5 }

let probe_pcs = 64

(* Every pc's [predict_into] probe, all six fields. *)
let probes h =
  List.init probe_pcs (fun pc ->
      let l = Hybrid.fresh_lbuf () in
      Hybrid.predict_into h ~pc l;
      Hybrid.(l.b_taken, l.b_g_taken, l.b_p_taken, l.b_g_index, l.b_p_index, l.b_s_index))

type inflight = { f_pc : int; f_lu : Hybrid.lbuf; f_sn : Hybrid.sbuf }

let fetch h ~pc ~flip =
  let f = { f_pc = pc; f_lu = Hybrid.fresh_lbuf (); f_sn = Hybrid.fresh_sbuf () } in
  Hybrid.predict_into h ~pc f.f_lu;
  Hybrid.spec_update_into h ~pc ~dir:(f.f_lu.Hybrid.b_taken <> flip) f.f_sn;
  f

(* Drive the protocol as the core does, over random ops on random pcs:
   fetch (follow the prediction or its opposite), retire the oldest
   in-flight branch (train), squash the youngest (restore), or recover
   one (restore everything younger youngest-first, then correct it). The
   in-flight list is youngest-first. *)
let rec drive h inflight = function
  | [] -> ()
  | (op, pc, bit) :: rest ->
    let n = List.length inflight in
    let inflight =
      match (op, inflight) with
      | (0 | 1), _ -> fetch h ~pc ~flip:bit :: inflight
      | _, [] -> []
      | 2, _ ->
        Hybrid.train_b h (List.nth inflight (n - 1)).f_lu ~taken:bit;
        List.filteri (fun i _ -> i < n - 1) inflight
      | 3, f :: older ->
        Hybrid.restore_b h f.f_sn;
        older
      | _ ->
        let depth = pc mod n in
        List.iteri (fun i f -> if i < depth then Hybrid.restore_b h f.f_sn) inflight;
        Hybrid.correct_b h (List.nth inflight depth).f_sn ~dir:bit;
        List.filteri (fun i _ -> i >= depth) inflight
    in
    drive h inflight rest

let prop_hybrid_protocol =
  QCheck.Test.make ~name:"hybrid restore and correct under any interleaving" ~count:200
    QCheck.(
      triple
        (list (triple (int_range 0 4) (int_range 0 (probe_pcs - 1)) bool))
        (list_of_size Gen.(1 -- 8) (pair (int_range 0 (probe_pcs - 1)) bool))
        bool)
    (fun (prefix, fetches, actual) ->
      let h = Hybrid.create small_config in
      drive h [] prefix;
      let before = probes h and prefix_copy = Hybrid.copy h in
      (* The newest k fetches, oldest first. *)
      let fs = List.map (fun (pc, flip) -> fetch h ~pc ~flip) fetches in
      let fetched = Hybrid.copy h in
      List.iter (fun f -> Hybrid.restore_b h f.f_sn) (List.rev fs);
      let restored = probes h = before in
      (* Recovering the oldest: restore the younger ones youngest-first,
         then correct it. Same state as a machine that only ever fetched
         it, following the actual direction. *)
      let oldest = List.hd fs in
      List.iter (fun f -> Hybrid.restore_b fetched f.f_sn) (List.rev (List.tl fs));
      Hybrid.correct_b fetched oldest.f_sn ~dir:actual;
      ignore (spec prefix_copy ~pc:oldest.f_pc ~dir:actual);
      restored && probes fetched = probes prefix_copy)

let test_hybrid_correct_reapplies () =
  let h = Hybrid.create Hybrid.default_config in
  let s = spec h ~pc:9 ~dir:true in
  let wrong_path = Hybrid.global_history h in
  Hybrid.correct_b h s ~dir:false;
  Alcotest.(check bool) "history rewritten" true (Hybrid.global_history h <> wrong_path)

(* BTB ---------------------------------------------------------------------- *)

let test_btb_insert_lookup () =
  let b = Btb.create ~entries:64 ~ways:4 in
  Alcotest.(check bool) "cold miss" false (Btb.hit b ~pc:100);
  Btb.insert b ~pc:100;
  Alcotest.(check bool) "hit after insert" true (Btb.hit b ~pc:100);
  Alcotest.(check bool) "other pc still misses" false (Btb.hit b ~pc:101)

let test_btb_capacity_eviction () =
  let b = Btb.create ~entries:16 ~ways:4 in
  (* 4 sets x 4 ways; flood set 0 (pcs congruent mod 4) with 5 entries. *)
  List.iter (fun pc -> Btb.insert b ~pc) [ 0; 4; 8; 12; 16 ];
  Alcotest.(check bool) "oldest evicted" false (Btb.hit b ~pc:0);
  Alcotest.(check bool) "newest present" true (Btb.hit b ~pc:16)

(* RAS ---------------------------------------------------------------------- *)

let test_ras_lifo () =
  let r = Ras.create ~entries:4 in
  Ras.push r 10;
  Ras.push r 20;
  check Alcotest.int "pop newest" 20 (Ras.pop r);
  check Alcotest.int "then older" 10 (Ras.pop r);
  check Alcotest.int "empty predicts 0" 0 (Ras.pop r)

let test_ras_overflow_wraps () =
  let r = Ras.create ~entries:2 in
  List.iter (Ras.push r) [ 1; 2; 3 ];
  check Alcotest.int "newest survives" 3 (Ras.pop r);
  check Alcotest.int "2 survives" 2 (Ras.pop r);
  (* 1 was overwritten by 3 (capacity 2, circular). *)
  check Alcotest.int "oldest overwritten" 3 (Ras.pop r)

let test_ras_snapshot_restore () =
  let r = Ras.create ~entries:8 in
  Ras.push r 5;
  let snap = Ras.snapshot r in
  Ras.push r 6;
  ignore (Ras.pop r);
  ignore (Ras.pop r);
  Ras.restore r snap;
  check Alcotest.int "pointer restored" 5 (Ras.pop r)

(* Confidence ----------------------------------------------------------------- *)

let conf_config = Confidence.default_config

let test_confidence_streak () =
  let c = Confidence.create conf_config in
  Alcotest.(check bool) "unknown branch is low" false
    (Confidence.is_high_confidence c ~pc:50 ~history:0);
  for _ = 1 to conf_config.Confidence.threshold do
    Confidence.train c ~pc:50 ~history:0 ~correct:true
  done;
  Alcotest.(check bool) "streak reaches high" true
    (Confidence.is_high_confidence c ~pc:50 ~history:0)

let test_confidence_resets_on_mispredict () =
  let c = Confidence.create conf_config in
  for _ = 1 to conf_config.Confidence.threshold + 3 do
    Confidence.train c ~pc:50 ~history:0 ~correct:true
  done;
  Confidence.train c ~pc:50 ~history:0 ~correct:false;
  Alcotest.(check bool) "reset to low" false (Confidence.is_high_confidence c ~pc:50 ~history:0)

let test_confidence_per_pc () =
  let c = Confidence.create conf_config in
  for _ = 1 to conf_config.Confidence.threshold do
    Confidence.train c ~pc:50 ~history:0 ~correct:true
  done;
  Alcotest.(check bool) "other pc unaffected" false
    (Confidence.is_high_confidence c ~pc:51 ~history:0)

(* Loop predictor ---------------------------------------------------------------- *)

let loop_visit lp ~pc ~trips =
  for _ = 1 to trips do
    ignore (Loop_pred.predict_code lp ~pc);
    Loop_pred.spec_iterate lp ~pc ~taken:true;
    Loop_pred.train lp ~pc ~taken:true
  done;
  ignore (Loop_pred.predict_code lp ~pc);
  Loop_pred.spec_iterate lp ~pc ~taken:false;
  Loop_pred.train lp ~pc ~taken:false

(* An exact-mode prediction's direction, or a failure. *)
let exact lp ~pc =
  let c = Loop_pred.predict_code lp ~pc in
  if c = Loop_pred.p_exact_t then true
  else if c = Loop_pred.p_exact_f then false
  else Alcotest.fail "expected exact mode"

let biased lp ~pc =
  let c = Loop_pred.predict_code lp ~pc in
  if c = Loop_pred.p_biased_t then true
  else if c = Loop_pred.p_biased_f then false
  else Alcotest.fail "expected biased mode"

let test_loop_pred_exact_mode () =
  let lp = Loop_pred.create () in
  Alcotest.(check bool) "untrained" true (Loop_pred.predict_code lp ~pc:9 = Loop_pred.p_none);
  for _ = 1 to 5 do
    loop_visit lp ~pc:9 ~trips:4
  done;
  let preds = ref [] in
  for _ = 1 to 4 do
    preds := exact lp ~pc:9 :: !preds;
    Loop_pred.spec_iterate lp ~pc:9 ~taken:true;
    Loop_pred.train lp ~pc:9 ~taken:true
  done;
  preds := exact lp ~pc:9 :: !preds;
  check
    Alcotest.(list bool)
    "T T T T N, exactly"
    [ true; true; true; true; false ]
    (List.rev !preds)

let test_loop_pred_biased_overestimates () =
  let lp = Loop_pred.create ~bias:2 () in
  List.iter (fun t -> loop_visit lp ~pc:4 ~trips:t) [ 3; 5; 4; 6; 3; 5; 4 ];
  Alcotest.(check bool) "keeps iterating at start" true (biased lp ~pc:4);
  for _ = 1 to 10 do
    Loop_pred.spec_iterate lp ~pc:4 ~taken:true
  done;
  Alcotest.(check bool) "eventually exits" false (biased lp ~pc:4)

let test_loop_pred_squash () =
  let lp = Loop_pred.create () in
  loop_visit lp ~pc:2 ~trips:3;
  for _ = 1 to 7 do
    Loop_pred.spec_iterate lp ~pc:2 ~taken:true
  done;
  Loop_pred.squash_all lp;
  loop_visit lp ~pc:2 ~trips:3;
  loop_visit lp ~pc:2 ~trips:3;
  let c = Loop_pred.predict_code lp ~pc:2 in
  Alcotest.(check bool) "iterates" true (c = Loop_pred.p_exact_t || c = Loop_pred.p_biased_t)

let () =
  Alcotest.run "wish_bpred"
    [
      ( "gshare",
        [
          Alcotest.test_case "learns bias" `Quick test_gshare_learns_bias;
          Alcotest.test_case "history disambiguates" `Quick test_gshare_history_disambiguates;
        ] );
      ( "pas",
        [
          Alcotest.test_case "learns period" `Quick test_pas_learns_period;
          Alcotest.test_case "restore" `Quick test_pas_restore;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "biased branch" `Quick test_hybrid_biased_branch;
          Alcotest.test_case "pattern branch" `Quick test_hybrid_pattern_branch;
          Alcotest.test_case "snapshot roundtrip" `Quick test_hybrid_snapshot_roundtrip;
          Alcotest.test_case "correct reapplies" `Quick test_hybrid_correct_reapplies;
          qtest prop_hybrid_restore_stack;
          qtest prop_hybrid_protocol;
        ] );
      ( "btb",
        [
          Alcotest.test_case "insert/lookup" `Quick test_btb_insert_lookup;
          Alcotest.test_case "eviction" `Quick test_btb_capacity_eviction;
        ] );
      ( "ras",
        [
          Alcotest.test_case "lifo" `Quick test_ras_lifo;
          Alcotest.test_case "overflow wraps" `Quick test_ras_overflow_wraps;
          Alcotest.test_case "snapshot" `Quick test_ras_snapshot_restore;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "streak" `Quick test_confidence_streak;
          Alcotest.test_case "reset on mispredict" `Quick test_confidence_resets_on_mispredict;
          Alcotest.test_case "per pc" `Quick test_confidence_per_pc;
        ] );
      ( "loop_pred",
        [
          Alcotest.test_case "exact mode" `Quick test_loop_pred_exact_mode;
          Alcotest.test_case "biased overestimates" `Quick test_loop_pred_biased_overestimates;
          Alcotest.test_case "squash" `Quick test_loop_pred_squash;
        ] );
    ]
