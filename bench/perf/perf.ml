(* perf — the end-to-end benchmark of paper regeneration. See README.md.

     perf.exe run [--seed S] [--reps N] [--out FILE] [--smoke]
         every workload, interleaved; then one traced pass per workload;
         prints every metric and writes one JSON record
     perf.exe bench --workload W --seed S --seconds T --trace 0|1
         one workload for about T seconds; the last stdout line is one
         JSON object (end-to-end metrics, or per-layer with --trace 1)
     perf.exe compare OLD NEW      verdict per (workload, metric)
     perf.exe pin [--smoke]        rewrite expected.json from a fresh run
     perf.exe manifest             print BENCHMARK.json

   Common options: --bin DIR (the CLIs; default _build/default/bin),
   --expected FILE (default bench/perf/expected.json), --work DIR
   (scratch, default _perf). Run from the repository root. The hidden
   subcommands [setup] and [traced] are the harness's own children. *)

module J = Wish_util.Perf_json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

(* [--key value] pairs and bare [--flag]s after the subcommand. *)
let parse_opts args =
  let rec go acc = function
    | [] -> List.rev acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k && not (String.starts_with ~prefix:"--" v)
      ->
      go ((k, v) :: acc) rest
    | k :: rest when String.starts_with ~prefix:"--" k -> go ((k, "") :: acc) rest
    | a :: _ -> fail "unexpected argument %s" a
  in
  go [] args

let opt opts k ~default = Option.value (List.assoc_opt k opts) ~default
let flag opts k = List.mem_assoc k opts

let int_opt opts k ~default =
  match int_of_string_opt (opt opts k ~default:(string_of_int default)) with
  | Some n -> n
  | None -> fail "%s wants an integer" k

(* ------------------------------------------------------------------ *)
(* Pins: the outputs every run must reproduce (expected.json)          *)
(* ------------------------------------------------------------------ *)

(* Checking against a section of expected.json, or recording one: when
   recording, the first observation of a key is kept and later ones must
   agree with it, so a pin run still checks the traced pass against the
   untraced outputs. *)
type pins = Check of (string * J.t) list | Record of (string, J.t) Hashtbl.t

let section smoke = if smoke then "smoke" else "full"

let load_pins ~expected ~smoke =
  match J.read_file expected with
  | Error e -> fail "%s: %s" expected e
  | Ok v -> (
    match J.member (section smoke) v with
    | Some (J.Obj kvs) -> Check kvs
    | _ -> fail "%s: no %S section" expected (section smoke))

let expect pins key v =
  match pins with
  | Check kvs -> List.assoc_opt key kvs = Some v
  | Record tbl -> (
    match Hashtbl.find_opt tbl key with
    | Some p -> p = v
    | None ->
      Hashtbl.add tbl key v;
      true)

let pinned_int pins key =
  let v = match pins with Check kvs -> List.assoc_opt key kvs | Record tbl -> Hashtbl.find_opt tbl key in
  match Option.bind v J.to_float_opt with Some f -> f | None -> fail "expected.json has no %s" key

(* ------------------------------------------------------------------ *)
(* Harness state                                                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  bin : string;
  work : string;
  pins : pins;
  smoke : bool;
  rng : Random.State.t;
  mutable warm_dir : string option;  (** the cache regen-warm reads *)
  mutable keep_cold : bool;  (** keep the next cold regen run's dir as [warm_dir] *)
}

(* Everything measured for one workload, samples in run order. *)
type acc = {
  mutable wall : float list;
  mutable cpu : float list;
  mutable setup : float list;
  mutable rss : float list;
  mutable disk : float list;
  mutable attempted : int;
  mutable failed : int;
}

let new_acc () = { wall = []; cpu = []; setup = []; rss = []; disk = []; attempted = 0; failed = 0 }

let record_failure acc what =
  acc.failed <- acc.failed + 1;
  prerr_endline ("perf: FAILED " ^ what)

(* Run one child; it fails on a nonzero exit or when [check] (called on
   success) says its output is wrong. *)
let child ctx acc ?env ~stdout ~check prog args =
  let stderr = Filename.concat ctx.work "stderr.txt" in
  let r = Proc.run ?env ~stdout ~stderr prog args in
  acc.attempted <- acc.attempted + 1;
  let what = String.concat " " (Filename.basename prog :: args) in
  if r.code <> 0 then
    record_failure acc (Printf.sprintf "%s: exit %d\n%s" what r.code (Proc.tail_lines stderr))
  else if not (check ()) then record_failure acc (what ^ ": output differs from expected.json");
  r

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let md5_file path = Digest.to_hex (Digest.file path)

let fresh_dir ctx name =
  let d = Filename.concat ctx.work name in
  Proc.rm_rf d;
  Proc.mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Untraced runs                                                       *)
(* ------------------------------------------------------------------ *)

let experiments_args = function
  | Workload.Regen r ->
    r.artifacts
    @ List.concat_map (fun b -> [ "-b"; b ]) r.benches
    @ [ "--scale"; string_of_int r.scale ]
    @ (match r.sample with Some s -> [ "--sample"; s ] | None -> [])
    @ [ "-j"; string_of_int r.jobs ]
  | Workload.Stream _ -> assert false

(* One experiments process on [dir]/cache, its tables in [dir]/out.txt. *)
let regen_process ctx acc (w : Workload.t) dir =
  let out = Filename.concat dir "out.txt" in
  child ctx acc
    ~env:[ "WISH_CACHE_DIR=" ^ Filename.concat dir "cache" ]
    ~stdout:out
    ~check:(fun () -> expect ctx.pins (w.pin ^ ".stdout_md5") (J.String (md5_file out)))
    (Filename.concat ctx.bin "experiments.exe")
    (experiments_args w.shape)

(* The cache regen-warm reads. In [run] it is the first regen-cold rep's;
   a [bench] run keeps one per experiments binary under the work dir, so
   repeated runs share it. *)
let warm_dir ctx acc (w : Workload.t) =
  match ctx.warm_dir with
  | Some d -> d
  | None ->
    let name = "warm-" ^ md5_file (Filename.concat ctx.bin "experiments.exe") in
    let d = Filename.concat ctx.work name in
    let ready = Filename.concat d "ready" in
    if not (Sys.file_exists ready) then begin
      (* Caches of older binaries are stale. *)
      Array.iter
        (fun e -> if String.starts_with ~prefix:"warm-" e then Proc.rm_rf (Filename.concat ctx.work e))
        (Sys.readdir ctx.work);
      ignore (fresh_dir ctx name);
      let r = regen_process ctx acc w d in
      if r.code = 0 && acc.failed = 0 then close_out (open_out ready)
    end;
    ctx.warm_dir <- Some d;
    d

(* wishsim's result lines, minus the streaming line (its peak RSS varies). *)
let result_lines path =
  String.split_on_char '\n' (Proc.read_file path)
  |> List.filter (fun l -> not (String.starts_with ~prefix:"streaming" l))
  |> String.concat "\n"

(* One wishsim --stream process. Pinning also records the dynamic
   instructions and cycles it prints: the stream traced pass is checked
   against those. *)
let stream_process ctx acc (w : Workload.t) dir ~scale ~input ((bench, kind) as run) =
  let key field = Printf.sprintf "%s.%s.%s" w.pin (Workload.run_id input run) field in
  let out = Filename.concat dir (Printf.sprintf "%s-%s.txt" bench kind) in
  let check () =
    (match ctx.pins with
    | Record _ ->
      let lines = String.split_on_char '\n' (Proc.read_file out) in
      let find fmt = List.find_map (fun l -> Scanf.sscanf_opt l fmt (fun n -> J.Int n)) lines in
      let record k v = ignore (expect ctx.pins (key k) (Option.value v ~default:J.Null)) in
      record "dynamic_insts" (find "dynamic insts %d");
      record "cycles" (find "cycles %d")
    | Check _ -> ());
    expect ctx.pins (key "stdout_md5") (J.String (Digest.to_hex (Digest.string (result_lines out))))
  in
  child ctx acc ~stdout:out ~check
    (Filename.concat ctx.bin "wishsim.exe")
    [ "--stream"; "--scale"; string_of_int scale; "-b"; bench; "-k"; kind; "-i"; input; "-j"; "2" ]

(* One rep of [w]; for regen-warm, [procs] processes (default [w.warm]).
   Its samples go into [acc]: a wall and CPU time per result in [rs], the
   largest RSS among them, and the bytes in [dir]. *)
let rep ?procs ctx acc (w : Workload.t) =
  let record (rs : Proc.result list) dir =
    acc.wall <- acc.wall @ List.map (fun (r : Proc.result) -> r.wall_s) rs;
    acc.cpu <- acc.cpu @ List.map (fun (r : Proc.result) -> r.cpu_s) rs;
    acc.rss <- acc.rss @ [ List.fold_left (fun m (r : Proc.result) -> Float.max m r.rss_mb) 0.0 rs ];
    acc.disk <- acc.disk @ [ float_of_int (Proc.disk_bytes dir) /. 1e6 ]
  in
  match w.shape with
  | Workload.Regen _ when w.warm = 0 ->
    let dir = fresh_dir ctx "cold" in
    record [ regen_process ctx acc w dir ] dir;
    if ctx.keep_cold then begin
      let keep = Filename.concat ctx.work "warm" in
      Proc.rm_rf keep;
      Sys.rename dir keep;
      ctx.warm_dir <- Some keep;
      ctx.keep_cold <- false
    end
    else Proc.rm_rf dir
  | Workload.Regen _ ->
    let dir = warm_dir ctx acc w in
    record (List.init (Option.value procs ~default:w.warm) (fun _ -> regen_process ctx acc w dir)) dir
  | Workload.Stream s ->
    let dir = fresh_dir ctx "stream" in
    let rs =
      List.map (stream_process ctx acc w dir ~scale:s.scale ~input:s.input) (shuffle ctx.rng s.runs)
    in
    (* One sample per pass: the processes' total. *)
    let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rs in
    record
      [
        {
          Proc.code = 0;
          wall_s = sum (fun r -> r.Proc.wall_s);
          cpu_s = sum (fun r -> r.Proc.cpu_s);
          rss_mb = List.fold_left (fun m (r : Proc.result) -> Float.max m r.rss_mb) 0.0 rs;
        };
      ]
      dir;
    Proc.rm_rf dir

(* Set-up time: [n] fresh children each building the workload's
   benchmarks and compiling their five binaries. *)
let setup_reps = 5

let measure_setup ctx acc (w : Workload.t) n =
  let out = Filename.concat ctx.work "setup.txt" in
  for _ = 1 to n do
    let check () =
      match float_of_string_opt (String.trim (Proc.read_file out)) with
      | Some s ->
        acc.setup <- acc.setup @ [ s ];
        true
      | None -> false
    in
    ignore
      (child ctx acc ~stdout:out ~check Sys.executable_name
         ("setup" :: "--scale" :: string_of_int (Workload.scale w)
         :: List.concat_map (fun b -> [ "--bench"; b ]) (Workload.setup_benches w)))
  done

(* ------------------------------------------------------------------ *)
(* The traced pass (a child running this executable's [traced])        *)
(* ------------------------------------------------------------------ *)

(* Dynamic instructions profiled by the workload's compiles (one per
   benchmark for a regeneration, one per wishsim process when
   streaming); pinned because the profiling call does not report it. *)
let profile_insts (w : Workload.t) =
  let benches =
    match w.shape with
    | Workload.Regen _ -> Workload.setup_benches w
    | Workload.Stream s -> List.map fst s.runs
  in
  List.fold_left
    (fun acc name ->
      let b = Wish_workloads.Workloads.find ~scale:(Workload.scale w) name in
      let normal, _ =
        Wish_compiler.Compiler.compile_kind ~mem_words:b.mem_words ~name:b.name b.ast
          Wish_compiler.Policy.Normal
      in
      let prof, _ =
        Wish_emu.Profile.of_program
          (Wish_isa.Program.with_data normal (Wish_workloads.Bench.profile_data b))
      in
      acc + prof.Wish_emu.Profile.dynamic_insts)
    0 benches

(* Runs the pass and checks it did the untraced run's work. Returns the
   per-layer metrics, or [] if the pass itself failed. *)
let traced ctx acc (w : Workload.t) ~untraced_cpu =
  let cold = w.warm = 0 in
  let cache_dir =
    match w.shape with
    | Workload.Regen _ when not cold -> Filename.concat (warm_dir ctx acc w) "cache"
    | _ -> Filename.concat (fresh_dir ctx "traced") "cache"
  in
  let out = Filename.concat ctx.work "traced.json" in
  let metrics = ref [] in
  let check () =
    match J.read_file out with
    | Error _ -> false
    | Ok v -> (
      try
        metrics :=
          List.map
            (fun (k, x) -> (k, Option.value (J.to_float_opt x) ~default:0.0))
            (Json.fields "metrics" v);
        let runs_ok =
          List.for_all
            (fun r ->
              let id = Json.str "run" r in
              expect ctx.pins (w.pin ^ "." ^ id ^ ".dynamic_insts") (Json.field "dynamic_insts" r)
              && expect ctx.pins (w.pin ^ "." ^ id ^ ".cycles") (Json.field "cycles" r))
            (match Json.field "runs" v with J.List runs -> runs | _ -> [])
        in
        let tables_ok =
          match w.shape with
          | Workload.Regen _ -> expect ctx.pins (w.pin ^ ".stdout_md5") (Json.field "tables_md5" v)
          | Workload.Stream _ -> true
        in
        let insts_ok =
          (not cold) || expect ctx.pins (w.pin ^ ".sim_insts") (Json.field "sim_insts" v)
        in
        runs_ok && tables_ok && insts_ok
      with Json.Schema _ -> false)
  in
  let r =
    child ctx acc ~stdout:out ~check Sys.executable_name
      ([ "traced"; "--workload"; w.name; "--cache"; cache_dir; "--cold"; (if cold then "1" else "0") ]
      @ if ctx.smoke then [ "--smoke" ] else [])
  in
  if cold then Proc.rm_rf (Filename.dirname cache_dir);
  match List.assoc_opt "traced.wall_s" !metrics with
  | Some wall when r.code = 0 ->
    (match ctx.pins with
    | Record _ -> ignore (expect ctx.pins (w.pin ^ ".profile_insts") (J.Int (profile_insts w)))
    | Check _ -> ());
    !metrics
    @ [
        ("compiler.profile.minsts", pinned_int ctx.pins (w.pin ^ ".profile_insts") /. 1e6);
        ("traced.overhead", if untraced_cpu > 0.0 then wall /. untraced_cpu else 0.0);
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Reduction and output                                                *)
(* ------------------------------------------------------------------ *)

let samples ctx (w : Workload.t) acc name =
  match name with
  | "wall_s" -> acc.wall
  | "cpu_s" -> acc.cpu
  | "setup_s" -> acc.setup
  | "peak_rss_mb" -> acc.rss
  | "cache_mb" -> acc.disk
  | "sim_minsts_per_s" ->
    let minsts = pinned_int ctx.pins (w.pin ^ ".sim_insts") /. 1e6 in
    List.map (fun s -> minsts /. s) acc.wall
  | m -> invalid_arg m

(* A workload whose every run failed has no samples; it reports 0. *)
let median0 xs = if xs = [] then 0.0 else Reduce.median xs

let summary xs =
  let q1, q2, q3 = Reduce.quartiles xs in
  [
    ("median", J.Float q2);
    ("q1", J.Float q1);
    ("q3", J.Float q3);
    ("n", J.Int (List.length xs));
    ( "tail",
      match Reduce.tail xs with
      | Some (p, v) -> J.Obj [ ("percentile", J.Float p); ("value", J.Float v) ]
      | None -> J.Null );
    ("samples", J.List (List.map (fun x -> J.Float x) xs));
  ]

let unit_of name =
  match List.find_opt (fun (m : Workload.metric) -> m.m_name = name) (Workload.end_to_end @ Workload.per_layer) with
  | Some m -> m.m_unit
  | None -> "?"

let print_e2e_row wname (m : Workload.metric) xs =
  if xs = [] then Printf.printf "%-13s %-17s %-8s   (no samples)\n" wname m.m_name m.m_unit
  else
    let q1, q2, q3 = Reduce.quartiles xs in
    Printf.printf "%-13s %-17s %-8s %12.4f %12.4f %12.4f %4d%s\n" wname m.m_name m.m_unit q2 q1 q3
      (List.length xs)
      (match Reduce.tail xs with Some (p, v) -> Printf.sprintf "  p%g %.4f" p v | None -> "")

let fingerprint ctx =
  let commit =
    let out = Filename.concat ctx.work "git.txt" in
    match
      Proc.run ~stdout:out ~stderr:(Filename.concat ctx.work "stderr.txt") "git"
        [ "rev-parse"; "--short"; "HEAD" ]
    with
    | { code = 0; _ } when String.trim (Proc.read_file out) <> "" -> String.trim (Proc.read_file out)
    | _ | (exception Unix.Unix_error _) -> "unknown"
  in
  let t = Unix.gmtime (Unix.time ()) in
  J.Obj
    [
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("commit", J.String commit);
      ( "date",
        J.String
          (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1)
             t.tm_mday t.tm_hour t.tm_min t.tm_sec) );
    ]

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let make_ctx opts ~pins_mode =
  let smoke = flag opts "--smoke" in
  (* The smoke run gets a private scratch dir; [run] removes it. *)
  let work =
    match List.assoc_opt "--work" opts with
    | Some d -> d
    | None -> if smoke then Filename.temp_dir "perf-smoke" "" else "_perf"
  in
  Proc.mkdir_p work;
  let bin = opt opts "--bin" ~default:(Filename.concat "_build" (Filename.concat "default" "bin")) in
  List.iter
    (fun exe ->
      if not (Sys.file_exists (Filename.concat bin exe)) then fail "%s not found in %s (build it first)" exe bin)
    [ "experiments.exe"; "wishsim.exe" ];
  let pins =
    match pins_mode with
    | `Record -> Record (Hashtbl.create 32)
    | `Check -> load_pins ~expected:(opt opts "--expected" ~default:"bench/perf/expected.json") ~smoke
  in
  {
    bin;
    work;
    pins;
    smoke;
    rng = Random.State.make [| int_opt opts "--seed" ~default:1 |];
    warm_dir = None;
    keep_cold = false;
  }

(* A private smoke dir goes entirely; otherwise only [run]'s warm cache. *)
let cleanup ctx opts =
  if ctx.smoke && not (List.mem_assoc "--work" opts) then Proc.rm_rf ctx.work
  else Proc.rm_rf (Filename.concat ctx.work "warm")

let catalog ~smoke = if smoke then Workload.smoke else Workload.full

let find_workload ~smoke name =
  match List.find_opt (fun (w : Workload.t) -> w.name = name) (catalog ~smoke) with
  | Some w -> w
  | None -> fail "unknown workload %s" name

let failed_frac acc = float_of_int acc.failed /. float_of_int (max 1 acc.attempted)

(* [bench]: one workload, as BENCHMARK.json's command (run.sh) runs it. *)
let bench opts =
  let ctx = make_ctx opts ~pins_mode:`Check in
  let w = find_workload ~smoke:ctx.smoke (opt opts "--workload" ~default:"") in
  let seconds = float_of_int (int_opt opts "--seconds" ~default:Workload.run_seconds) in
  let acc = new_acc () in
  let metrics =
    if int_opt opts "--trace" ~default:0 = 0 then begin
      measure_setup ctx acc w setup_reps;
      (* regen-warm: one untimed process first loads the binary and the
         cache into memory (and makes the cache, on a checkout's first
         run); then each process is a step of its own. *)
      if w.warm > 0 then ignore (regen_process ctx acc w (warm_dir ctx acc w));
      let t0 = Proc.now () in
      let rec steps () =
        let s = Proc.now () in
        rep ~procs:1 ctx acc w;
        let t = Proc.now () in
        if t -. t0 +. (t -. s) <= seconds then steps ()
      in
      steps ();
      List.map
        (fun (m : Workload.metric) ->
          let xs = samples ctx w acc m.m_name in
          (m.m_name, m.m_unit, median0 xs))
        Workload.end_to_end
    end
    else begin
      rep ctx acc w;
      let layers = traced ctx acc w ~untraced_cpu:(median0 acc.cpu) in
      List.map
        (fun (m : Workload.metric) ->
          (m.m_name, m.m_unit, Option.value (List.assoc_opt m.m_name layers) ~default:0.0))
        Workload.per_layer
    end
  in
  print_endline
    (Json.to_string
       (J.Obj
          [
            ("correct", J.Bool (acc.failed = 0));
            ("attempted", J.Int acc.attempted);
            ("failed", J.Int acc.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, u, v) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
                   metrics) );
          ]))

(* Checks a written record against the catalog; returns the problems. *)
let check_record ctx path =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match J.read_file path with
  | Error e -> problem "%s: %s" path e
  | Ok v -> (
    try
      List.iter
        (fun (w : Workload.t) ->
          let wr = Json.field w.name (Json.field "workloads" v) in
          if Json.num "failed" wr <> 0.0 then problem "%s: %g failed child run(s)" w.name (Json.num "failed" wr);
          let e2e = Json.field "end_to_end" wr in
          List.iter
            (fun (m : Workload.metric) ->
              let x = Json.field m.m_name e2e in
              if Json.str "unit" x <> m.m_unit then problem "%s %s: unit" w.name m.m_name;
              if Json.num "n" x < 1.0 then problem "%s %s: no samples" w.name m.m_name;
              if Json.num "median" x <= 0.0 then problem "%s %s: not positive" w.name m.m_name)
            Workload.end_to_end;
          let pl = Json.field "per_layer" wr in
          List.iter (fun (m : Workload.metric) -> ignore (Json.num "value" (Json.field m.m_name pl))) Workload.per_layer;
          let coverage = Json.num "value" (Json.field "traced.coverage" pl) in
          let floor = if ctx.smoke then 0.9 else 0.95 in
          if coverage < floor then problem "%s: traced.coverage %.3f < %.2f" w.name coverage floor)
        (catalog ~smoke:ctx.smoke)
    with Json.Schema s -> problem "%s: %s" path s));
  List.rev !problems

(* [run]: every workload, interleaved by the seed, then the traced pass. *)
let run opts =
  let ctx = make_ctx opts ~pins_mode:`Check in
  let reps = if ctx.smoke then 1 else int_opt opts "--reps" ~default:3 in
  let workloads = catalog ~smoke:ctx.smoke in
  let accs = List.map (fun (w : Workload.t) -> (w.name, new_acc ())) workloads in
  ctx.keep_cold <- true;
  for round = 1 to reps do
    let order = shuffle ctx.rng workloads in
    (* regen-warm reads the first regen-cold rep's cache. *)
    let order =
      if round > 1 then order
      else
        List.filter (fun (w : Workload.t) -> w.name = "regen-cold") order
        @ List.filter (fun (w : Workload.t) -> w.name <> "regen-cold") order
    in
    List.iter
      (fun (w : Workload.t) ->
        if not ctx.smoke then Printf.eprintf "perf: round %d/%d %s\n%!" round reps w.name;
        let acc = List.assoc w.name accs in
        measure_setup ctx acc w setup_reps;
        rep ctx acc w)
      order
  done;
  let layers =
    List.map
      (fun (w : Workload.t) ->
        if not ctx.smoke then Printf.eprintf "perf: traced pass %s\n%!" w.name;
        let acc = List.assoc w.name accs in
        (w.name, traced ctx acc w ~untraced_cpu:(median0 acc.cpu)))
      workloads
  in
  Printf.printf "%-13s %-17s %-8s %12s %12s %12s %4s\n" "workload" "metric" "unit" "median" "q1" "q3" "n";
  List.iter
    (fun (w : Workload.t) ->
      let acc = List.assoc w.name accs in
      List.iter (fun (m : Workload.metric) -> print_e2e_row w.name m (samples ctx w acc m.m_name)) Workload.end_to_end;
      Printf.printf "%-13s %-17s %-8s %12.4f   (%d/%d child runs failed)\n" w.name "failed_frac" "ratio"
        (failed_frac acc) acc.failed acc.attempted)
    workloads;
  print_newline ();
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (k, v) -> Printf.printf "%-13s %-34s %-8s %14.6g\n" w.name k (unit_of k) v)
        (List.assoc w.name layers))
    workloads;
  let record =
    J.Obj
      [
        ("schema", J.String "wish-perf/1");
        ("fingerprint", fingerprint ctx);
        ("seed", J.Int (int_opt opts "--seed" ~default:1));
        ("reps", J.Int reps);
        ("smoke", J.Bool ctx.smoke);
        ( "workloads",
          J.Obj
            (List.map
               (fun (w : Workload.t) ->
                 let acc = List.assoc w.name accs in
                 ( w.name,
                   J.Obj
                     [
                       ("attempted", J.Int acc.attempted);
                       ("failed", J.Int acc.failed);
                       ("failed_frac", J.Float (failed_frac acc));
                       ( "end_to_end",
                         J.Obj
                           (List.map
                              (fun (m : Workload.metric) ->
                                let xs = samples ctx w acc m.m_name in
                                ( m.m_name,
                                  J.Obj
                                    (("unit", J.String m.m_unit)
                                    :: (if xs = [] then [ ("n", J.Int 0) ] else summary xs)) ))
                              Workload.end_to_end) );
                       ( "per_layer",
                         J.Obj
                           (List.map
                              (fun (k, v) -> (k, J.Obj [ ("unit", J.String (unit_of k)); ("value", J.Float v) ]))
                              (List.assoc w.name layers)) );
                     ] ))
               workloads) );
      ]
  in
  let out = opt opts "--out" ~default:(Filename.concat ctx.work "record.json") in
  Json.write_file out record;
  Printf.printf "\nrecord: %s\n" out;
  let problems = check_record ctx out in
  let manifest_problems =
    match List.assoc_opt "--benchmark" opts with
    | None -> []
    | Some path -> (
      match J.read_file path with
      | Ok v when v = Workload.manifest () -> []
      | Ok _ -> [ path ^ " differs from `perf.exe manifest`" ]
      | Error e -> [ path ^ ": " ^ e ])
  in
  List.iter (fun p -> prerr_endline ("perf: " ^ p)) (problems @ manifest_problems);
  cleanup ctx opts;
  if problems @ manifest_problems <> [] then exit 1

(* [compare OLD NEW]: one row per (workload, metric). *)
let compare_records old_path new_path =
  let load p = match J.read_file p with Ok v -> v | Error e -> fail "%s: %s" p e in
  let old_r = load old_path and new_r = load new_path in
  let regressed = ref false in
  Printf.printf "%-13s %-17s %-8s %26s %26s %6s  %s\n" "workload" "metric" "unit" "old median [q1, q3]"
    "new median [q1, q3]" "bound" "verdict";
  (try
     List.iter
       (fun (wname, nw) ->
         match J.member wname (Json.field "workloads" old_r) with
         | None -> Printf.printf "%-13s (not in %s)\n" wname old_path
         | Some ow ->
           let rows =
             List.map
               (fun (m : Workload.metric) ->
                 let get w = Json.floats "samples" (Json.field m.m_name (Json.field "end_to_end" w)) in
                 (m, get ow, get nw))
               Workload.end_to_end
             @ [
                 ( Workload.e2e "failed_frac" "ratio" Reduce.Lower 0.0,
                   [ Json.num "failed_frac" ow ],
                   [ Json.num "failed_frac" nw ] );
               ]
           in
           List.iter
             (fun ((m : Workload.metric), o, n) ->
               let cell xs =
                 let q1, q2, q3 = Reduce.quartiles xs in
                 Printf.sprintf "%10.4g [%.4g, %.4g]" q2 q1 q3
               in
               let v = Reduce.verdict ~better:m.better ~bound:m.bound ~old:o ~fresh:n in
               if v = Reduce.Regressed then regressed := true;
               Printf.printf "%-13s %-17s %-8s %26s %26s %5.0f%%  %s\n" wname m.m_name m.m_unit (cell o)
                 (cell n) (100.0 *. m.bound) (Reduce.verdict_name v))
             rows)
       (Json.fields "workloads" new_r)
   with Json.Schema s -> fail "%s" s);
  if !regressed then exit 1

(* [pin]: rewrite one section of expected.json from a fresh run. *)
let pin opts =
  let ctx = make_ctx opts ~pins_mode:`Record in
  let expected = opt opts "--expected" ~default:"bench/perf/expected.json" in
  let acc = new_acc () in
  List.iter
    (fun (w : Workload.t) ->
      if w.warm = 0 then begin
        Printf.eprintf "perf: pinning %s\n%!" w.name;
        rep ctx acc w;
        ignore (traced ctx acc w ~untraced_cpu:0.0)
      end)
    (catalog ~smoke:ctx.smoke);
  cleanup ctx opts;
  if acc.failed > 0 then fail "%d child run(s) failed; expected.json left unchanged" acc.failed;
  let tbl = match ctx.pins with Record t -> t | Check _ -> assert false in
  let fresh = J.Obj (List.sort compare (List.of_seq (Hashtbl.to_seq tbl))) in
  let others =
    match J.read_file expected with
    | Ok (J.Obj kvs) -> List.remove_assoc (section ctx.smoke) kvs
    | _ -> []
  in
  Json.write_file expected
    (J.Obj (List.sort compare ((section ctx.smoke, fresh) :: others)));
  Printf.printf "wrote the %s section of %s\n" (section ctx.smoke) expected

(* Child: time one set-up (build + compile) and print the seconds. *)
let setup opts =
  let scale = int_opt opts "--scale" ~default:1 in
  let benches = List.filter_map (fun (k, v) -> if k = "--bench" then Some v else None) opts in
  let t0 = Proc.now () in
  List.iter
    (fun name ->
      let b = Wish_workloads.Workloads.find ~scale name in
      ignore
        (Wish_compiler.Compiler.compile_all ~mem_words:b.mem_words ~name:b.name
           ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast))
    benches;
  Printf.printf "%.9f\n" (Proc.now () -. t0)

(* Child: the traced pass of one workload; prints its JSON. *)
let traced_child opts =
  let w = find_workload ~smoke:(flag opts "--smoke") (opt opts "--workload" ~default:"") in
  let v = Traced.run w ~cache_dir:(opt opts "--cache" ~default:"") ~cold:(opt opts "--cold" ~default:"1" = "1") in
  print_endline (Json.to_string v)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run (parse_opts rest)
  | "bench" :: rest -> bench (parse_opts rest)
  | [ "compare"; old_path; new_path ] -> compare_records old_path new_path
  | "pin" :: rest -> pin (parse_opts rest)
  | [ "manifest" ] -> print_endline (Json.to_string ~indent:true (Workload.manifest ()))
  | "setup" :: rest -> setup (parse_opts rest)
  | "traced" :: rest -> traced_child (parse_opts rest)
  | _ ->
    prerr_endline
      "usage: perf.exe (run [--seed S] [--reps N] [--out FILE] [--smoke] | bench --workload W \
       --seed S --seconds T --trace 0|1 | compare OLD NEW | pin [--smoke] | manifest)";
    exit 2
