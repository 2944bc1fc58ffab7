(* The benchmark's workloads and metrics — the one definition the
   harness, its records, and BENCHMARK.json share (@perf-smoke checks the
   committed BENCHMARK.json against [manifest]). *)

type shape =
  | Regen of {
      scale : int;
      benches : string list;  (** [] = all nine *)
      artifacts : string list;  (** [] = the default catalog *)
      sample : string option;  (** experiments --sample W:D *)
      jobs : int;  (** experiments -j *)
    }
  | Stream of { scale : int; runs : (string * string) list; input : string }
      (** wishsim --stream, one process per (bench, kind) *)

type t = {
  name : string;
  why : string;
  shape : shape;
  warm : int;  (** 0: one run on an empty cache; n: n runs against a cold run's cache *)
  pin : string;  (** the expected.json entry its outputs must match *)
}

let regen_all jobs = Regen { scale = 1; benches = []; artifacts = []; sample = None; jobs }

let stream_runs benches =
  List.concat_map (fun b -> [ (b, "normal"); (b, "wish-jump-join-loop") ]) benches

let full =
  [
    {
      name = "regen-cold";
      why =
        "the system's job: every default table and figure at scale 1 from an empty cache; \
         ~96% detailed simulation";
      shape = regen_all 2;
      warm = 0;
      pin = "regen-cold";
    };
    {
      (* -j 1: the warm run's only parallel work is abl-wish-n's few
         simulations. A second domain makes it slower and costs about a
         quarter more CPU, and every stop-the-world minor GC then waits on both cores,
         so contention on either one shows twice (README.md). *)
      name = "regen-warm";
      why =
        "the edit-and-rerun loop: the same tables again, one -j 1 process at a time, on the \
         cache regen-cold left; cache reads replace simulation, so lab set-up and abl-wish-n \
         dominate";
      shape = regen_all 1;
      warm = 15;
      pin = "regen-cold";
    };
    {
      name = "sampled-s100";
      why =
        "long runs: fig10 for gzip/mcf/bzip2 at scale 100 sampled 300000:18000; trace \
         generation, trace cache writes and memory dominate";
      shape =
        Regen
          {
            scale = 100;
            benches = [ "gzip"; "mcf"; "bzip2" ];
            artifacts = [ "fig10" ];
            sample = Some "300000:18000";
            jobs = 2;
          };
      warm = 0;
      pin = "sampled-s100";
    };
    {
      name = "stream-s100";
      why =
        "few long exact runs through the bounded-memory streaming trace, with no cache and \
         no pool: per-run set-up and cache changes should not show here";
      shape = Stream { scale = 100; runs = stream_runs [ "gzip"; "mcf" ]; input = "A" };
      warm = 0;
      pin = "stream-s100";
    };
  ]

(* Same names, scale-1 gzip-only shapes: what @perf-smoke runs. *)
let smoke =
  let regen ?(jobs = 2) sample =
    Regen { scale = 1; benches = [ "gzip" ]; artifacts = [ "fig10" ]; sample; jobs }
  in
  List.map
    (fun w ->
      match w.name with
      | "regen-cold" -> { w with shape = regen None }
      | "regen-warm" -> { w with shape = regen ~jobs:1 None; warm = 2 }
      | "sampled-s100" -> { w with shape = regen (Some "20000:2000") }
      | _ -> { w with shape = Stream { scale = 1; runs = [ ("gzip", "normal") ]; input = "A" } })
    full

let scale w = match w.shape with Regen r -> r.scale | Stream s -> s.scale

(* A stream run's name in expected.json: bench/kind/input. *)
let run_id input (bench, kind) = Printf.sprintf "%s/%s/%s" bench kind input

(* The benchmarks whose build + compile is the workload's set-up. *)
let setup_benches w =
  match w.shape with
  | Regen { benches = []; _ } -> Wish_workloads.Workloads.names
  | Regen { benches; _ } -> benches
  | Stream { runs; _ } -> List.sort_uniq compare (List.map fst runs)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string; better : Reduce.better; bound : float }

let e2e m_name m_unit better bound = { m_name; m_unit; better; bound }

let end_to_end =
  Reduce.
    [
      e2e "wall_s" "s" Lower 0.25;
      e2e "cpu_s" "s" Lower 0.25;
      e2e "setup_s" "s" Lower 0.25;
      e2e "peak_rss_mb" "MB" Lower 0.20;
      e2e "cache_mb" "MB" Lower 0.02;
      e2e "sim_minsts_per_s" "Minst/s" Higher 0.25;
    ]

(* The layers the traced pass times, each by the public function named in
   README.md. *)
let layers =
  [
    "workloads.build";
    "lab.create";
    "compiler.compile";
    "compiler.profile";
    "emu.trace";
    "sim.exact";
    "sim.sampled";
    "sim.stream";
    "cache.write";
    "cache.read";
    "experiments.render";
  ]

let per_layer =
  let pl m_name m_unit better = { m_name; m_unit; better; bound = 0.0 } in
  Reduce.(
    List.concat_map
      (fun l -> [ pl (l ^ ".s") "s" Lower; pl (l ^ ".calls") "count" Lower; pl (l ^ ".minor_mwords") "Mwords" Lower ])
      layers
    @ [
        pl "compiler.profile.minsts" "Minst" Lower;
        pl "emu.trace.minsts" "Minst" Lower;
        pl "emu.trace.minsts_per_s" "Minst/s" Higher;
        pl "sim.exact.minsts" "Minst" Lower;
        pl "sim.exact.minsts_per_s" "Minst/s" Higher;
        pl "sim.exact.runs_per_trace" "ratio" Higher;
        pl "sim.sampled.minsts" "Minst" Lower;
        pl "sim.sampled.measured_frac" "ratio" Lower;
        pl "sim.sampled.windows" "count" Lower;
        pl "sim.stream.minsts" "Minst" Lower;
        pl "sim.stream.minsts_per_s" "Minst/s" Higher;
        pl "sim.stream.peak_entries" "entries" Lower;
        pl "cache.write.mb" "MB" Lower;
        pl "cache.read.hit_frac" "ratio" Higher;
        pl "experiments.render.abl-wish-n.s" "s" Lower;
        pl "gc.top_heap_mb" "MB" Lower;
        pl "gc.major_mwords" "Mwords" Lower;
        pl "traced.wall_s" "s" Lower;
        pl "traced.coverage" "ratio" Higher;
        pl "traced.overhead" "ratio" Lower;
      ])

let better_name = function Reduce.Lower -> "lower" | Reduce.Higher -> "higher"

(* How long one [bench] run measures. The harness runs one rep (for
   regen-warm, one process) and starts another only while the last one
   says it will end within this time. *)
let run_seconds = 25

(* BENCHMARK.json, as the harness defines it. *)
let manifest () =
  let module J = Wish_util.Perf_json in
  J.Obj
    [
      ("command", J.List [ J.String "bash"; J.String "bench/perf/run.sh" ]);
      ("paths", J.List [ J.String "bench/perf" ]);
      ("run_seconds", J.Int run_seconds);
      ( "workloads",
        J.List (List.map (fun w -> J.Obj [ ("name", J.String w.name); ("why", J.String w.why) ]) full)
      );
      ( "end_to_end",
        J.List
          (List.map
             (fun m ->
               J.Obj
                 [
                   ("name", J.String m.m_name);
                   ("unit", J.String m.m_unit);
                   ("better", J.String (better_name m.better));
                   ("bound", J.Float m.bound);
                 ])
             end_to_end) );
      ( "per_layer",
        J.List
          (List.map
             (fun m ->
               J.Obj
                 [
                   ("name", J.String m.m_name);
                   ("unit", J.String m.m_unit);
                   ("better", J.String (better_name m.better));
                 ])
             per_layer) );
    ]
