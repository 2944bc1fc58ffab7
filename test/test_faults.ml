(* Chaos suite: every registered faultpoint is armed and driven through
   the production code that hosts it, and the observable output —
   per-job summaries, rendered figure tables — must come out
   byte-identical to a fault-free run whenever the injected schedule
   eventually succeeds. Permanent failures must surface as structured
   reports, never as hangs or silently wrong numbers.

   Wired into [dune runtest] via the @chaos alias (dune build @chaos to
   run alone). Each test disarms everything in a finalizer so a failing
   case cannot poison the next; the final "coverage" case fails if a
   production faultpoint exists that this file never exercised. *)

module FP = Wish_util.Faultpoint
module Pool = Wish_util.Pool
module Table = Wish_util.Table
module Cache = Wish_experiments.Cache
module Lab = Wish_experiments.Lab
module Figures = Wish_experiments.Figures

(* Sites proven injected (counter > 0 while still armed) by some test.
   The coverage case checks this against [FP.registered]. *)
let exercised : (string, unit) Hashtbl.t = Hashtbl.create 16

let note site =
  Alcotest.(check bool) (site ^ " actually injected") true (FP.injected site > 0);
  Hashtbl.replace exercised site ()

let with_reset f = Fun.protect ~finally:FP.reset f

(* Fresh scratch directories under the system temp dir; removed by the
   caller via [rm_rf] when the test cares, otherwise left to the OS. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wishchaos_%d_%d" (Unix.getpid ()) !n)

let rec rm_rf d =
  if Sys.file_exists d then
    if Sys.is_directory d then begin
      Array.iter (fun f -> rm_rf (Filename.concat d f)) (Sys.readdir d);
      try Sys.rmdir d with Sys_error _ -> ()
    end
    else try Sys.remove d with Sys_error _ -> ()

(* Per-element digests: marshalling a whole summary list is sensitive to
   physical sharing between elements (fresh summaries share substructure,
   cache-round-tripped ones do not), which is invisible to every
   consumer. Elements are compared value-by-value instead. *)
let digests s = String.concat ";" (List.map Cache.digest_of s)

(* ----------------------------------------------------------------- *)
(* Faultpoint semantics                                               *)
(* ----------------------------------------------------------------- *)

let test_faultpoint_semantics () =
  with_reset @@ fun () ->
  let site = FP.register "test.reg" ~doc:"chaos-suite scratch site" in
  Alcotest.(check bool) "registered lists the site" true (List.mem_assoc site (FP.registered ()));
  Alcotest.(check bool) "disarmed by default" false (FP.enabled ());
  FP.cut "test.a" (* no-op while disarmed *);
  FP.arm "test.a" ~times:2;
  Alcotest.(check bool) "enabled once armed" true (FP.enabled ());
  let hit_of f = try f (); -1 with FP.Injected { site = s; hit } ->
    Alcotest.(check string) "exception names the site" "test.a" s;
    hit
  in
  Alcotest.(check int) "first cut fires with hit 1" 1 (hit_of (fun () -> FP.cut "test.a"));
  Alcotest.(check int) "second cut fires with hit 2" 2 (hit_of (fun () -> FP.cut "test.a"));
  FP.cut "test.a" (* plan exhausted: back to no-op *);
  Alcotest.(check int) "three cuts observed" 3 (FP.hits "test.a");
  Alcotest.(check int) "two faults injected" 2 (FP.injected "test.a");
  (* fires: the non-raising variant, for corruption sites. *)
  FP.arm "test.b" ~times:1;
  Alcotest.(check bool) "fires consumes the plan" true (FP.fires "test.b");
  Alcotest.(check bool) "then stays quiet" false (FP.fires "test.b");
  FP.reset ();
  Alcotest.(check bool) "reset disarms everything" false (FP.enabled ());
  Alcotest.(check int) "reset zeroes counters" 0 (FP.hits "test.a")

let test_faultpoint_determinism () =
  with_reset @@ fun () ->
  let pattern seed =
    FP.arm "test.pct" ~seed ~percent:40 ~times:1_000_000;
    List.init 200 (fun _ -> FP.fires "test.pct")
  in
  let p1 = pattern 11 in
  let p2 = pattern 11 in
  Alcotest.(check (list bool)) "same seed, same fire pattern" p1 p2;
  let fired = List.length (List.filter Fun.id p1) in
  Alcotest.(check bool)
    (Printf.sprintf "40%% gate fired a plausible %d/200 times" fired)
    true
    (fired > 30 && fired < 150)

let test_faultpoint_env () =
  with_reset @@ fun () ->
  Unix.putenv "WISH_FAULTS" "test.env:2, test.env2:3:50";
  Unix.putenv "WISH_FAULT_SEED" "4";
  Fun.protect ~finally:(fun () -> Unix.putenv "WISH_FAULTS" "") @@ fun () ->
  FP.arm_from_env ();
  Alcotest.(check bool) "env arming enables" true (FP.enabled ());
  let raised f = try f (); false with FP.Injected _ -> true in
  Alcotest.(check bool) "first env cut fires" true (raised (fun () -> FP.cut "test.env"));
  Alcotest.(check bool) "second env cut fires" true (raised (fun () -> FP.cut "test.env"));
  Alcotest.(check bool) "third env cut is quiet" false (raised (fun () -> FP.cut "test.env"))

(* ----------------------------------------------------------------- *)
(* Pool supervision: a worker dying mid-task loses nothing            *)
(* ----------------------------------------------------------------- *)

let test_pool_worker_death () =
  with_reset @@ fun () ->
  let pool = Pool.create ~size:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  FP.arm "pool.worker" ~times:2;
  let xs = List.init 20 Fun.id in
  let ys = Pool.map pool (fun x -> x * x) xs in
  Alcotest.(check (list int)) "every result, in order" (List.map (fun x -> x * x) xs) ys;
  Alcotest.(check int) "both dead workers respawned" 2 (Pool.respawns pool);
  note "pool.worker";
  (* The healed pool keeps working at full capacity. *)
  let ys = Pool.map pool (fun x -> x + 1) xs in
  Alcotest.(check (list int)) "healed pool still maps" (List.map (fun x -> x + 1) xs) ys

(* ----------------------------------------------------------------- *)
(* Cache: torn writes, bit flips, stale formats, concurrent writers   *)
(* ----------------------------------------------------------------- *)

let value = List.init 2000 (fun k -> (7 * k) land 255)

(* Each cache test runs with a lease held in the same directory: the
   maintenance walks (scan, verify, prune, stats) must neither count,
   classify nor move it. *)
let with_lease c f =
  Alcotest.(check bool) "lease taken" true (Cache.try_lease c ~key:"in-flight");
  f ();
  Alcotest.(check int) "the lease outlives maintenance" 1
    (Array.length (Sys.readdir (Filename.concat (Cache.dir c) "lease")));
  Cache.release_lease c ~key:"in-flight"

let test_cache_torn_write () =
  with_reset @@ fun () ->
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir () in
  with_lease c @@ fun () ->
  FP.arm "cache.write.torn" ~times:1;
  Cache.store c ~kind:"t" ~key:"k" value;
  note "cache.write.torn";
  (match Cache.scan c with
  | [ (_, Cache.Entry_corrupt reason) ] ->
    Alcotest.(check string) "torn write detected as such" "missing footer (torn write)" reason
  | other -> Alcotest.failf "expected one corrupt entry, scan found %d" (List.length other));
  Alcotest.(check int) "stats count the one entry" 1 (Cache.stats c).st_entries;
  Alcotest.(check (option (list int))) "torn entry is a miss" None (Cache.find c ~kind:"t" ~key:"k");
  Alcotest.(check int) "torn entry quarantined" 1
    (Array.length (Sys.readdir (Cache.quarantine_dir c)));
  (* Transparent recompute-and-store round-trips. *)
  Cache.store c ~kind:"t" ~key:"k" value;
  Alcotest.(check (option (list int))) "rewrite round-trips" (Some value)
    (Cache.find c ~kind:"t" ~key:"k")

let test_cache_corrupt_write () =
  with_reset @@ fun () ->
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir () in
  with_lease c @@ fun () ->
  FP.arm "cache.write.corrupt" ~times:1;
  Cache.store c ~kind:"t" ~key:"k" value;
  note "cache.write.corrupt";
  (match Cache.scan c with
  | [ (_, Cache.Entry_corrupt reason) ] ->
    Alcotest.(check string) "checksum mismatch detected"
      "payload does not match its footer checksum" reason
  | other -> Alcotest.failf "expected one corrupt entry, scan found %d" (List.length other));
  Alcotest.(check (option (list int))) "flipped entry is a miss" None
    (Cache.find c ~kind:"t" ~key:"k");
  (* prune quarantines what scan flags. *)
  FP.arm "cache.write.corrupt" ~times:1;
  Cache.store c ~kind:"t" ~key:"k2" value;
  let r = Cache.prune c in
  Alcotest.(check int) "prune quarantined the corrupt entry" 1 r.quarantined;
  Alcotest.(check int) "nothing intact to keep" 0 r.kept

let test_cache_stale_eviction () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let old = Cache.create ~dir ~version:2 () in
  Cache.store old ~kind:"t" ~key:"k" value;
  let c = Cache.create ~dir () in
  with_lease c @@ fun () ->
  (match Cache.scan c with
  | [ (_, Cache.Entry_stale 2) ] -> ()
  | _ -> Alcotest.fail "expected one v2-stale entry");
  let v = Cache.verify c in
  Alcotest.(check (pair int int)) "verify: one stale, nothing quarantined" (1, 0)
    (v.v_stale, v.v_quarantined);
  Alcotest.(check (option (list int))) "stale entry is a miss" None
    (Cache.find c ~kind:"t" ~key:"k");
  Alcotest.(check int) "stale entry evicted, not quarantined" 0 (List.length (Cache.scan c));
  Alcotest.(check bool) "no quarantine for stale" false (Sys.file_exists (Cache.quarantine_dir c))

let test_cache_concurrent_writers () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir () in
  let payload i = List.init 2000 (fun k -> (i * 7) + k) in
  let writer i = Domain.spawn (fun () -> for _ = 1 to 40 do Cache.store c ~kind:"t" ~key:"k" (payload i) done) in
  let reader () =
    Domain.spawn (fun () ->
        for _ = 1 to 80 do
          match (Cache.find c ~kind:"t" ~key:"k" : int list option) with
          | None -> () (* not yet written, or mid-quarantine: a miss is fine *)
          | Some l ->
            if List.length l <> 2000 then failwith "reader observed a partial entry"
        done)
  in
  let ws = List.init 4 writer in
  let rs = [ reader (); reader () ] in
  List.iter Domain.join ws;
  List.iter Domain.join rs;
  (match (Cache.find c ~kind:"t" ~key:"k" : int list option) with
  | Some l -> Alcotest.(check int) "final entry complete" 2000 (List.length l)
  | None -> Alcotest.fail "final entry missing");
  (match Cache.scan c with
  | [ (_, Cache.Entry_ok) ] -> ()
  | _ -> Alcotest.fail "expected exactly one intact entry");
  Alcotest.(check bool) "no writer ever quarantined anything" false
    (Sys.file_exists (Cache.quarantine_dir c))

let test_journal_torn_line () =
  with_reset @@ fun () ->
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~dir () in
  Cache.journal_append c "alpha";
  FP.arm "cache.journal.torn" ~times:1;
  Cache.journal_append c "beta" (* torn mid-line *);
  note "cache.journal.torn";
  Cache.journal_append c "gamma" (* must newline-terminate the fragment first *);
  let keys = Cache.journal_load c in
  Alcotest.(check bool) "intact line survives" true (Hashtbl.mem keys "alpha");
  Alcotest.(check bool) "line after the tear survives" true (Hashtbl.mem keys "gamma");
  Alcotest.(check bool) "torn line is not a key" false (Hashtbl.mem keys "beta");
  Alcotest.(check int) "exactly the two intact keys" 2 (Hashtbl.length keys);
  Cache.journal_clear c;
  Alcotest.(check int) "journal_clear empties it" 0 (Hashtbl.length (Cache.journal_load c))

(* ----------------------------------------------------------------- *)
(* Lab supervision                                                    *)
(* ----------------------------------------------------------------- *)

(* Render fig10 for a gzip-only lab (grid prewarmed under the default
   policy) with the given fault schedule armed; returns the CSV text and
   the supervision stats. *)
let fig10_csv ?sample faults =
  with_reset @@ fun () ->
  let lab = Lab.create ~names:[ "gzip" ] ~jobs:2 ?sample () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  List.iter (fun (site, times) -> FP.arm site ~times) faults;
  Lab.prewarm lab (Figures.jobs_for "fig10" lab);
  List.iter (fun (site, _) -> note site) faults;
  (Table.to_csv (Figures.fig10 lab), Lab.batch_stats lab)

let test_table_identical_under_faults () =
  let clean, _ = fig10_csv [] in
  let chaotic, st =
    fig10_csv [ ("lab.compile", 1); ("lab.trace", 2); ("lab.simulate", 3) ]
  in
  Alcotest.(check string) "fig10 byte-identical under injected faults" clean chaotic;
  Alcotest.(check bool)
    (Printf.sprintf "every injected fault was retried (%d retries)" st.retried)
    true (st.retried >= 6)

(* A sampled lab has no trace stage, so [lab.trace] cannot fire there;
   its compile and simulate stages are supervised all the same. *)
let test_sampled_table_identical_under_faults () =
  let sample = Lab.Sample_spec (Wish_sim.Sampler.spec ~warm:20_000 ~detail:2_000) in
  let clean, _ = fig10_csv ~sample [] in
  let chaotic, st = fig10_csv ~sample [ ("lab.compile", 1); ("lab.simulate", 3) ] in
  Alcotest.(check string) "sampled fig10 byte-identical under injected faults" clean chaotic;
  Alcotest.(check bool)
    (Printf.sprintf "every injected fault was retried (%d retries)" st.retried)
    true (st.retried >= 4)

let jj_jobs () = Lab.with_baselines [ Lab.job ~bench:"gzip" ~kind:Wish_compiler.Policy.Wish_jj () ]

(* retries = 0: one armed fault permanently fails a task; keep_going
   turns that into data, not an exception. *)
let keep_going = { Lab.retries = 0; keep_going = true }

let test_keep_going_reports_failures () =
  with_reset @@ fun () ->
  let lab = Lab.create ~names:[ "gzip" ] ~policy:keep_going () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  FP.arm "lab.simulate" ~times:1;
  (match Lab.run_batch_results lab (jj_jobs ()) with
  | [ Error fl; Ok _ ] ->
    Alcotest.(check string) "failed stage" "simulate" fl.failed_stage;
    Alcotest.(check int) "single attempt" 1 fl.failed_attempts;
    Alcotest.(check bool) "reason names the site" true
      (String.length fl.failed_reason > 0
      && String.sub fl.failed_reason 0 (min 25 (String.length fl.failed_reason))
         = "injected fault at lab.sim")
  | _ -> Alcotest.fail "expected [Error; Ok]");
  note "lab.simulate";
  Alcotest.(check int) "failure counted" 1 (Lab.batch_stats lab).failed

(* A final failure stays with the lab: a later [Lab.run] of the failed
   job raises it again without computing anything. *)
let test_keep_going_failure_recorded () =
  with_reset @@ fun () ->
  let lab = Lab.create ~names:[ "gzip" ] ~policy:keep_going () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  FP.arm "lab.simulate" ~times:1;
  Lab.prewarm lab (jj_jobs ());
  note "lab.simulate";
  let executed = (Lab.batch_stats lab).executed in
  (match Lab.run lab ~bench:"gzip" ~kind:Wish_compiler.Policy.Wish_jj () with
  | _ -> Alcotest.fail "the failed job must raise"
  | exception Lab.Job_failed fl ->
    Alcotest.(check string) "its recorded stage" "simulate" fl.failed_stage;
    Alcotest.(check string) "its recorded job" "gzip/wish-jump-join input A" fl.failed_what);
  Alcotest.(check int) "nothing executed" executed (Lab.batch_stats lab).executed

(* gzip's BASE-DEF binary is its normal binary, so a batch of the two
   is one key and one simulation, of the batch's first job. With
   retries = 0 the one armed fault fails it for good, and both jobs
   report that failure. *)
let test_keep_going_twin_group_failure () =
  with_reset @@ fun () ->
  let lab = Lab.create ~names:[ "gzip" ] ~policy:keep_going () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  FP.arm "lab.simulate" ~times:1;
  let jobs =
    Lab.with_baselines [ Lab.job ~bench:"gzip" ~kind:Wish_compiler.Policy.Base_def () ]
  in
  (match Lab.run_batch_results lab jobs with
  | [ Error a; Error b ] ->
    Alcotest.(check string) "failed stage" "simulate" a.failed_stage;
    Alcotest.(check string) "the key's simulated job" "gzip/base-def input A" a.failed_what;
    Alcotest.(check bool) "the same failure for both members" true (a = b)
  | _ -> Alcotest.fail "expected [Error; Error]");
  note "lab.simulate";
  Alcotest.(check int) "one simulation failed" 1 (Lab.batch_stats lab).failed

(* A serial lab with a cache computes its misses under leases. When the
   cache holds gzip's binary entry but no summary, the jobs are leased
   on their keys before gzip compiles. A bench whose compile failed must
   fail every job of that bench, once: the one-shot fault must not be
   outlived by a second compile. *)
let test_keep_going_compile_failure_cached () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_reset @@ fun () ->
  let c = Cache.create ~dir () in
  ignore (Lab.shape (Lab.create ~names:[ "gzip" ] ~cache:c ()) ~bench:"gzip" ~kind:Wish_compiler.Policy.Normal);
  let lab = Lab.create ~names:[ "gzip" ] ~cache:c ~policy:keep_going () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  FP.arm "lab.compile" ~times:1;
  List.iter
    (function
      | Error (fl : Lab.failure) -> Alcotest.(check string) "failed stage" "compile" fl.failed_stage
      | Ok _ -> Alcotest.fail "a gzip job outlived its bench's failed compile")
    (Lab.run_batch_results lab (jj_jobs ()));
  note "lab.compile";
  Alcotest.(check int) "the compile ran once" 1 (FP.hits "lab.compile");
  Alcotest.(check int) "one failure counted" 1 (Lab.batch_stats lab).failed;
  Alcotest.(check int) "every lease released" 0
    (Array.length (Sys.readdir (Filename.concat (Cache.dir c) "lease")))

(* A variant's binary is compiled by the batch's compile stage, under
   the lab's policy: its failed compile fails that variant's jobs only. *)
let test_keep_going_variant_compile_failure () =
  with_reset @@ fun () ->
  let lab = Lab.create ~names:[ "gzip" ] ~policy:keep_going () in
  let normal = Lab.job ~bench:"gzip" ~kind:Wish_compiler.Policy.Normal () in
  ignore (Lab.run_batch lab [ normal ]);
  FP.arm "lab.compile" ~times:1;
  let variant = Lab.job ~bench:"gzip" ~kind:Wish_compiler.Policy.Wish_jj ~wish_threshold_n:0 () in
  (match Lab.run_batch_results lab [ variant; normal ] with
  | [ Error fl; Ok _ ] ->
    Alcotest.(check string) "failed stage" "compile" fl.failed_stage;
    Alcotest.(check string) "the variant's binary" "gzip/wish-jump-join.n0" fl.failed_what
  | _ -> Alcotest.fail "expected [Error; Ok]");
  note "lab.compile";
  Alcotest.(check int) "one failure counted" 1 (Lab.batch_stats lab).failed

let test_fail_fast_raises () =
  with_reset @@ fun () ->
  let policy = { Lab.retries = 1; keep_going = false } in
  Alcotest.check_raises "negative retries rejected" (Invalid_argument "Lab: policy.retries < 0")
    (fun () -> ignore (Lab.create ~names:[ "gzip" ] ~policy:{ policy with retries = -1 } ()));
  let lab = Lab.create ~names:[ "gzip" ] ~policy () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  FP.arm "lab.simulate" ~times:1_000_000;
  match Lab.run_batch lab (jj_jobs ()) with
  | _ -> Alcotest.fail "inexhaustible fault schedule must raise Job_failed"
  | exception Lab.Job_failed fl ->
    Alcotest.(check string) "failed stage" "simulate" fl.failed_stage;
    Alcotest.(check int) "all attempts spent" 2 fl.failed_attempts

(* [Lab.run] is a one-job batch: a simulation fault on its miss is
   retried under the lab's (default) policy like any batched job's. *)
let test_run_retries_under_policy () =
  with_reset @@ fun () ->
  let run lab = Lab.run lab ~bench:"gzip" ~kind:Wish_compiler.Policy.Normal () in
  let clean = run (Lab.create ~names:[ "gzip" ] ()) in
  let lab = Lab.create ~names:[ "gzip" ] () in
  FP.arm "lab.simulate" ~times:1;
  let s = run lab in
  note "lab.simulate";
  Alcotest.(check string) "the clean summary" (digests [ clean ]) (digests [ s ]);
  Alcotest.(check int) "one retry" 1 (Lab.batch_stats lab).retried;
  Alcotest.(check int) "no failure" 0 (Lab.batch_stats lab).failed

(* ----------------------------------------------------------------- *)
(* Emulator-compiler miscompile drill site                            *)
(* ----------------------------------------------------------------- *)

(* [emu.compile.bug] plants a wrong add-immediate during closure
   specialization — the seeded "known bug" the differential fuzzer's
   lockstep oracle must catch (see test_fuzz.ml for the full drill).
   Here: the armed site visibly changes the architectural outcome, and
   a recompile after disarming restores it. *)
let test_emu_compile_bug () =
  with_reset (fun () ->
      let program =
        Wish_isa.Parse.program_of_string ~name:"chaos-emu"
          ".mem 64\nadd r1, r0, #5\nst [r1+0], r1\nhalt\n"
      in
      let run_compiled () =
        let compiled =
          Wish_emu.Compiled.compile ~mode:Wish_emu.Exec.Architectural
            (Wish_isa.Program.code program)
        in
        let st = Wish_emu.State.create program in
        let o = Wish_emu.Exec.make_out () in
        Wish_emu.Compiled.run_to_halt compiled st o ~sink:Wish_emu.Compiled.no_sink ~fuel:1000;
        Wish_emu.State.outcome st
      in
      let clean = run_compiled () in
      FP.arm "emu.compile.bug" ~times:1_000;
      let faulty = run_compiled () in
      note "emu.compile.bug";
      Alcotest.(check bool) "miscompile changes the outcome" false (clean = faulty);
      FP.reset ();
      Alcotest.(check bool) "recompile after disarm restores" true (clean = run_compiled ()))

(* ----------------------------------------------------------------- *)
(* Coverage: no production faultpoint escapes this suite              *)
(* ----------------------------------------------------------------- *)

let test_coverage () =
  List.iter
    (fun (site, _doc) ->
      if not (String.length site >= 5 && String.sub site 0 5 = "test.") then
        Alcotest.(check bool) (site ^ " exercised by the chaos suite") true
          (Hashtbl.mem exercised site))
    (FP.registered ())

let () =
  Alcotest.run "faults"
    [
      ( "faultpoint",
        [
          Alcotest.test_case "arm/cut/counters" `Quick test_faultpoint_semantics;
          Alcotest.test_case "seeded percent gate is deterministic" `Quick
            test_faultpoint_determinism;
          Alcotest.test_case "WISH_FAULTS env arming" `Quick test_faultpoint_env;
        ] );
      ( "pool",
        [ Alcotest.test_case "worker death: requeue + respawn" `Quick test_pool_worker_death ] );
      ( "cache",
        [
          Alcotest.test_case "torn write quarantined, recomputed" `Quick test_cache_torn_write;
          Alcotest.test_case "bit flip fails the checksum" `Quick test_cache_corrupt_write;
          Alcotest.test_case "stale format evicted on contact" `Quick test_cache_stale_eviction;
          Alcotest.test_case "concurrent writers never tear" `Quick test_cache_concurrent_writers;
          Alcotest.test_case "journal survives a torn append" `Quick test_journal_torn_line;
        ] );
      ( "lab",
        [
          Alcotest.test_case "fig10 byte-identical under faults" `Slow
            test_table_identical_under_faults;
          Alcotest.test_case "sampled fig10 byte-identical under faults" `Slow
            test_sampled_table_identical_under_faults;
          Alcotest.test_case "keep-going returns structured failures" `Slow
            test_keep_going_reports_failures;
          Alcotest.test_case "keep-going failure is not recomputed" `Slow
            test_keep_going_failure_recorded;
          Alcotest.test_case "keep-going fails every twin of a failed group" `Slow
            test_keep_going_twin_group_failure;
          Alcotest.test_case "keep-going compile failure under leases" `Slow
            test_keep_going_compile_failure_cached;
          Alcotest.test_case "keep-going variant compile failure" `Slow
            test_keep_going_variant_compile_failure;
          Alcotest.test_case "fail-fast raises Job_failed" `Slow test_fail_fast_raises;
          Alcotest.test_case "run retries a fault under the lab's policy" `Slow
            test_run_retries_under_policy;
        ] );
      ("emu", [ Alcotest.test_case "compile-bug drill site" `Quick test_emu_compile_bug ]);
      ("coverage", [ Alcotest.test_case "every faultpoint exercised" `Quick test_coverage ]);
    ]
