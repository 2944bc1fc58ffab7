(** The six oracles — see the interface for the contract
    each one checks. Everything here is deterministic: fixed fuel, a
    machine configuration fixed or drawn from the case's seed, no wall
    clock, no randomness, so a verdict replays bit-for-bit from a seed. *)

module Ast = Wish_compiler.Ast
module Compiler = Wish_compiler.Compiler
module Policy = Wish_compiler.Policy
module Program = Wish_isa.Program
module Parse = Wish_isa.Parse
module State = Wish_emu.State
module Trace = Wish_emu.Trace
module Memory = Wish_emu.Memory
module Scompiled = Wish_sim.Compiled
module Runner = Wish_sim.Runner
module Config = Wish_sim.Config
module Counters = Wish_sim.Counters
module Cache = Wish_experiments.Cache

type verdict = Pass | Skip of string | Fail of string

type name = Source | Binaries | Sim_identity | Sampled | Observed | Roundtrip

let all_names = [ Source; Binaries; Sim_identity; Sampled; Observed; Roundtrip ]

let name_id = function
  | Source -> "source"
  | Binaries -> "binaries"
  | Sim_identity -> "sim"
  | Sampled -> "sampled"
  | Observed -> "observed"
  | Roundtrip -> "roundtrip"

let name_of_id = function
  | "source" -> Some Source
  | "binaries" -> Some Binaries
  | "sim" -> Some Sim_identity
  | "sampled" -> Some Sampled
  | "observed" -> Some Observed
  | "roundtrip" -> Some Roundtrip
  | _ -> None

(* Budgets. Generated programs are small by construction (statement
   budget, trip counts <= 32, loop nest <= 2), but deeply nested loops
   calling looping functions can still blow up combinatorially; such
   cases are skipped rather than simulated for minutes. *)
let fuel = 500_000
let sim_trace_cap = 60_000

let failf fmt = Printf.ksprintf (fun m -> Fail m) fmt
let exn_label e = Printexc.to_string e

(* First Fail wins, then first Skip, else Pass. *)
let combine verdicts =
  match List.find_opt (function Fail _ -> true | _ -> false) verdicts with
  | Some v -> v
  | None -> (
    match List.find_opt (function Skip _ -> true | _ -> false) verdicts with
    | Some v -> v
    | None -> Pass)

(* --- (a, b) every binary kind against the source and the normal one --- *)

(* The final state of an architectural run. *)
let run_arch program = try Ok (snd (Wish_emu.Profile.of_program ~fuel program)) with e -> Error e

(* The data region and the live-out slots: everything a generated
   program computes, and nothing of the codegen's spill area. *)
let source_words (c : Gen.case) =
  let data = Program.segments_of_pairs c.Gen.c_eval_data in
  match Source.run ~fuel ~mem_words:c.Gen.c_mem_words ~data c.Gen.c_ast with
  | mem -> Ok (Array.sub mem 0 (Gen.out_base + c.Gen.c_outs))
  | exception e -> Error e

let words_verdict ~words tag (st : State.t) =
  let rec first a =
    if a >= Array.length words then Pass
    else if Memory.read st.State.mem a = words.(a) then first (a + 1)
    else if a < Gen.out_base then failf "%s: data word %d differs from the source" tag a
    else failf "%s: live-out slot %d differs from the source" tag (a - Gen.out_base)
  in
  first 0

(* [program]'s architectural outcome [arch] against [words], then its
   predicate-through one where it has wish branches. *)
let source_check ~words tag program arch =
  match arch with
  | Error e -> failf "%s raised where the source did not: %s" tag (exn_label e)
  | Ok st -> (
    match words_verdict ~words tag st with
    | Pass when Wish_isa.Code.static_wish_branches (Program.code program) > 0 -> (
      match Trace.generate ~fuel program with
      | exception Trace.Out_of_fuel _ -> Skip (tag ^ " predicate-through: fuel exhausted")
      | exception e -> failf "%s predicate-through raised: %s" tag (exn_label e)
      | _, st -> words_verdict ~words (tag ^ " predicate-through") st)
    | v -> v)

let source_program ~words program = source_check ~words "program" program (run_arch program)

(* One pass over the five kinds serves both oracles: each kind runs once
   architecturally; [Source] holds that run (and the predicate-through
   one) to the evaluator's words, [Binaries] holds its memory checksum,
   spill area included, to the normal binary's. *)
let kinds_verdicts (c : Gen.case) (eval : Policy.kind -> Program.t) =
  match run_arch (eval Policy.Normal) with
  | Error e ->
    let skip = Skip ("normal binary raised: " ^ exn_label e) in
    (skip, skip)
  | Ok golden ->
    let words = source_words c in
    let golden_sum = (State.outcome golden).State.memory_checksum in
    let check_kind kind =
      let p = eval kind and tag = Policy.kind_name kind in
      let arch = if kind = Policy.Normal then Ok golden else run_arch p in
      let vs_source =
        match words with
        | Error e ->
          failf "the source evaluator raised where the normal binary did not: %s" (exn_label e)
        | Ok words -> source_check ~words tag p arch
      in
      let vs_normal =
        match arch with
        | Error e -> failf "%s raised where normal did not: %s" tag (exn_label e)
        | Ok st ->
          if (State.outcome st).State.memory_checksum <> golden_sum then
            failf "%s: memory checksum differs from normal" tag
          else Pass
      in
      (vs_source, vs_normal)
    in
    let vs = List.map check_kind Compiler.all_kinds in
    (combine (List.map fst vs), combine (List.map snd vs))

(* --- (c) the timing core's accounting and re-run ---------------------- *)

let gen_trace program =
  match Trace.generate ~fuel program with
  | trace, _final ->
    if Trace.length trace > sim_trace_cap then Error "trace too long for the timing oracles"
    else Ok trace
  | exception Trace.Out_of_fuel _ -> Error "trace generation out of fuel"
  | exception Memory.Fault _ -> Error "program faults"
  | exception State.Call_stack_error _ -> Error "call stack trap"

let run_scompiled config program trace =
  let core = Scompiled.create config program trace in
  ignore (Scompiled.run core);
  (Scompiled.cycles core, Scompiled.counters core, Scompiled.hier_stats core)

let first_counter_diff ci cc =
  List.find_opt (fun c -> Counters.get ci c <> Counters.get cc c) Counters.all

(* The compiled core's accounting on one finished run: µops retire on
   the correct path or as phantoms, each retired wish branch lands in
   exactly one bucket, a false-guarded µop is a correct-path one, and
   retirement reached the trace's last entry. *)
let accounting_failure ~length ~last_retired counts =
  let g = Counters.get counts in
  let total = List.fold_left (fun acc c -> acc + g c) 0 in
  let open Counters in
  if g retired_uops <> g retired_correct + g retired_phantom then
    Some "retired_uops <> retired_correct + retired_phantom"
  else if
    g wish_retired <> total [ wish_high_correct; wish_high_mispred; wish_low_correct; wish_low_mispred ]
  then Some "wish_retired <> the sum of the four wish buckets"
  else if
    g wish_loop_retired
    <> total
         [
           loop_high_correct;
           loop_high_mispred;
           loop_low_early;
           loop_low_late;
           loop_low_noexit;
           loop_low_correct;
         ]
  then Some "wish_loop_retired <> the sum of the six loop buckets"
  else if g retired_guard_false > g retired_correct then
    Some "retired_guard_false > retired_correct"
  else if last_retired <> length - 1 then
    Some (Printf.sprintf "retired through trace entry %d of %d" last_retired length)
  else None

let sim_identity_program program =
  match gen_trace program with
  | Error reason -> Skip reason
  | Ok trace -> (
    let run () =
      let core = Scompiled.run (Scompiled.create Config.default program trace) in
      ( (Scompiled.cycles core, Scompiled.counters core, Scompiled.hier_stats core),
        Scompiled.retired_trace_idx core )
    in
    match run () with
    | exception e -> failf "the timing core raised: %s" (exn_label e)
    | ((_, counts, _) as first), last_retired -> (
      match accounting_failure ~length:(Trace.length trace) ~last_retired counts with
      | Some what -> failf "accounting: %s" what
      | None -> (
        (* A second run, on a new core with its own machine tables. *)
        match run () with
        | exception e -> failf "the re-run raised: %s" (exn_label e)
        | again, _ -> if again <> first then Fail "re-run differs" else Pass)))

(* --- (d) exact vs sampled simulation ---------------------------------- *)

let sampled_verdict program =
  match gen_trace program with
  | Error reason -> Skip reason
  | Ok trace -> (
    let exact = try Ok (Runner.simulate ~trace program) with e -> Error e in
    match exact with
    | Error e -> Skip ("exact simulation raised: " ^ exn_label e)
    | Ok exact -> (
      match Runner.simulate_sampled ~trace program with
      | exception e -> failf "sampled simulation raised: %s" (exn_label e)
      | _summary, report ->
        let open Wish_sim.Sampler in
        let total = Trace.length trace in
        let window_bookkeeping () =
          (* Structural invariants — sharp and deterministic, unlike the
             statistical band below: windows in order, inside the trace,
             non-empty, and the measured-entry ledger adds up. *)
          let rec walk prev_end sum = function
            | [] -> if sum <> report.r_measured_entries then Some "measured-entry ledger" else None
            | w :: rest ->
              if w.w_start < prev_end then Some "windows overlap or are unsorted"
              else if w.w_entries <= 0 then Some "empty measurement window"
              else if w.w_start + w.w_entries > total then Some "window past end of trace"
              else walk (w.w_start + w.w_entries) (sum + w.w_entries) rest
          in
          walk 0 0 report.r_windows
        in
        let fused_identity () =
          (* A run with no trace warms fused (trace-free) and must
             reproduce the trace-based report bit for bit: same spec, same
             windows, same estimates, same warming-cache stats. [compare]
             rather than [=] so an equal-but-NaN CI still counts as
             identical. *)
          match Wish_sim.Sampler.run ~config:Config.default ~spec:report.r_spec program with
          | exception e -> failf "fused-warming sampled run raised: %s" (exn_label e)
          | fused ->
            if compare fused report <> 0 then
              Fail "fused-warming report differs from the replayed trace's"
            else Pass
        in
        if report.r_total_insts <> total then
          failf "sampled run covered %d of %d trace entries" report.r_total_insts total
        else (
          match window_bookkeeping () with
          | Some what -> failf "sampled window bookkeeping broken: %s" what
          | None ->
            let est = report.r_est_cycles in
            let degenerate =
              match report.r_windows with
              | [ w ] -> w.w_start = 0 && w.w_entries = total
              | _ -> false
            in
            if degenerate then
              if est <> exact.Runner.cycles then
                failf "degenerate (single cold full window) estimate %d <> exact %d" est
                  exact.Runner.cycles
              else fused_identity ()
            else if est <= 0 then failf "nonsensical cycle estimate %d" est
            else
              (* Genuinely sampled runs only estimate, and generated
                 programs are tiny and adversarially phase-heavy — the
                 few-window CI can even collapse to zero. The band is
                 deliberately loose (catch a desynced sampler, not
                 estimator variance); the sharp checks are the
                 degenerate identity above and the paper-workload CI
                 tests of the sampler's own suite. *)
              let exact_c = float_of_int exact.Runner.cycles in
              let estf = float_of_int est in
              if estf < 0.25 *. exact_c || estf > 4.0 *. exact_c then
                failf "estimate %d implausible vs exact %d" est exact.Runner.cycles
              else
                let tol = Float.max (8.0 *. report.r_upc_ci) (0.75 *. exact.Runner.upc) in
                if Float.abs (report.r_upc -. exact.Runner.upc) > tol then
                  failf "sampled uPC %.4f (CI %.4f) outside band around exact %.4f" report.r_upc
                    report.r_upc_ci exact.Runner.upc
                else fused_identity ())))

(* --- (e) unobservable config fields ------------------------------------ *)

let machine_configs =
  let configs =
    lazy
      (let module Lab = Wish_experiments.Lab in
       let module Figures = Wish_experiments.Figures in
       let module Ablations = Wish_experiments.Ablations in
       let lab = Lab.create ~names:[ "gzip" ] () in
       let tables =
         List.concat_map
           (fun (_, a) -> Lab.cell_jobs (a.Figures.cells lab))
           (Figures.artifacts @ Ablations.artifacts)
       in
       let d = Config.default in
       let flips =
         [
           { d with conf = { d.conf with threshold = d.conf.threshold + 1 } };
           { d with use_loop_predictor = not d.use_loop_predictor };
           { d with wish_hardware = not d.wish_hardware };
           { d with knobs = { d.knobs with perfect_conf = not d.knobs.perfect_conf } };
           { d with mech = Config.Select_uop };
           { d with knobs = { d.knobs with no_depend = not d.knobs.no_depend } };
           { d with knobs = { d.knobs with no_fetch = not d.knobs.no_fetch } };
         ]
       in
       List.fold_left
         (fun acc c -> if List.mem c acc then acc else c :: acc)
         []
         (List.map (fun (j : Lab.job) -> j.job_config) tables @ flips)
       |> List.rev)
  in
  fun () -> Lazy.force configs

(* Dense enough that a generated program's run warms between several
   windows instead of degenerating to one exact window. *)
let observed_spec = Wish_sim.Sampler.spec ~warm:2000 ~detail:500

(* [program] under [config] and under the machine it can observe: equal
   cycles, counters and memory stats, exact and sampled. *)
let observed_program config program =
  let code = Program.code program in
  let observed =
    Config.observed
      ~wish:(Wish_isa.Code.static_wish_branches code > 0)
      ~predicated:(Wish_isa.Code.static_guarded_non_branches code > 0)
      config
  in
  if observed = config then Pass
  else
    match gen_trace program with
    | Error reason -> Skip reason
    | Ok trace -> (
      let run c =
        ( run_scompiled c program trace,
          Wish_sim.Sampler.run ~trace ~config:c ~spec:observed_spec program )
      in
      match (run config, run observed) with
      | exception e -> Skip ("simulation raised: " ^ exn_label e)
      | ((ca, sa, ma), ra), ((co, so, mo), ro) -> (
        if ca <> co then failf "cycles differ: as configured %d, observed %d" ca co
        else if ma <> mo then Fail "memory-hierarchy stats differ from the observed machine's"
        else
          match first_counter_diff sa so with
          | Some k ->
            failf "counters differ: %s as configured %d, observed %d" (Counters.name k)
              (Counters.get sa k) (Counters.get so k)
          | None ->
            (* [compare], not [=]: an equal-but-NaN CI still counts as equal. *)
            if compare ra ro <> 0 then Fail "sampled report differs from the observed machine's"
            else Pass))

(* The case's wish-free and predication-free binaries under one config,
   drawn by the case's seed from the table machines that set some field
   {!Config.observed} can reset. *)
let observed_verdict (c : Gen.case) (eval : Policy.kind -> Program.t) =
  let configs =
    List.filter
      (fun k -> Config.observed ~wish:false ~predicated:false k <> k)
      (machine_configs ())
  in
  let config = List.nth configs ((c.Gen.c_seed land max_int) mod List.length configs) in
  let programs =
    List.fold_left
      (fun acc kind ->
        let p = eval kind in
        if List.exists (fun q -> Wish_isa.Code.equal (Program.code p) (Program.code q)) acc then acc
        else p :: acc)
      [] Compiler.all_kinds
  in
  combine (List.rev_map (observed_program config) programs)

(* --- (f) artifact round-trips: text and cache ------------------------- *)

let remove_cache_dir dir =
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        (try Sys.rmdir path with Sys_error _ -> ())
      end
      else try Sys.remove path with Sys_error _ -> ()
  in
  rm dir

let text_roundtrip program =
  match Parse.listing_of_program program with
  | exception e -> failf "listing failed: %s" (exn_label e)
  | l1 -> (
    match Parse.program_of_string ~name:(Program.name program) l1 with
    | exception e -> failf "reparse of own listing failed: %s" (exn_label e)
    | p2 ->
      let l2 = Parse.listing_of_program p2 in
      if not (String.equal l1 l2) then Fail "listing -> parse -> listing is not a fixed point"
      else begin
        match (run_arch program, run_arch p2) with
        | Ok a, Ok b ->
          if State.outcome a <> State.outcome b then Fail "reparsed program's outcome differs"
          else Pass
        | Error a, Error b ->
          if String.equal (exn_label a) (exn_label b) then Pass
          else failf "reparsed program traps differently: %s vs %s" (exn_label a) (exn_label b)
        | Error a, Ok _ -> Skip ("program raised: " ^ exn_label a)
        | Ok _, Error b -> failf "only the reparsed program raised: %s" (exn_label b)
      end)

let cache_roundtrip ~cache_dir (c : Gen.case) payload =
  let t = Cache.create ~dir:cache_dir () in
  Cache.clear t;
  let key = Printf.sprintf "%s:%d" c.Gen.c_name c.Gen.c_seed in
  Cache.store t ~kind:"fuzz-program" ~key payload;
  match Cache.find t ~kind:"fuzz-program" ~key with
  | None -> Fail "cache: stored entry not found"
  | Some (v : string * string) ->
    if v <> payload then Fail "cache: round-tripped value differs"
    else begin
      let bad =
        List.filter (fun (_, s) -> s <> Cache.Entry_ok) (Cache.scan t)
      in
      match bad with
      | (file, _) :: _ -> failf "cache: %s does not scan clean after write" file
      | [] ->
        Cache.journal_append t key;
        if not (Hashtbl.mem (Cache.journal_load t) key) then
          Fail "cache: journaled key lost on reload"
        else Pass
    end

let roundtrip_verdict ~cache_dir (c : Gen.case) (eval : Policy.kind -> Program.t) =
  let p_normal = eval Policy.Normal and p_wjjl = eval Policy.Wish_jjl in
  let texts = combine [ text_roundtrip p_normal; text_roundtrip p_wjjl ] in
  match texts with
  | Fail _ | Skip _ -> texts
  | Pass ->
    cache_roundtrip ~cache_dir c
      (Parse.listing_of_program p_normal, Parse.listing_of_program p_wjjl)

(* --- driver ----------------------------------------------------------- *)

let compile (c : Gen.case) =
  try
    Ok
      (Compiler.compile_all ~mem_words:c.Gen.c_mem_words ~fuel ~name:c.Gen.c_name
         ~profile_data:(Program.segments_of_pairs c.Gen.c_profile_data)
         c.Gen.c_ast)
  with e -> Error (exn_label e)

let check ~cache_dir ~names (c : Gen.case) =
  match compile c with
  | Error reason -> List.map (fun n -> (n, Skip ("compile: " ^ reason))) names
  | Ok bins ->
    let eval_data = Program.segments_of_pairs c.Gen.c_eval_data in
    let eval kind = Program.with_data (Compiler.binary bins kind) eval_data in
    let kinds = lazy (kinds_verdicts c eval) in
    let run = function
      | Source -> fst (Lazy.force kinds)
      | Binaries -> snd (Lazy.force kinds)
      | Sim_identity ->
        combine
          [
            sim_identity_program (eval Policy.Base_def);
            sim_identity_program (eval Policy.Wish_jjl);
          ]
      | Sampled -> sampled_verdict (eval Policy.Wish_jjl)
      | Observed -> observed_verdict c eval
      | Roundtrip -> roundtrip_verdict ~cache_dir c eval
    in
    (* Run in order; skips don't block later oracles, the first Fail
       stops the case (the shrinker wants exactly one failing oracle). *)
    let rec go acc = function
      | [] -> List.rev acc
      | n :: rest -> (
        match run n with
        | Fail _ as v -> List.rev ((n, v) :: acc)
        | v -> go ((n, v) :: acc) rest)
    in
    go [] names

let first_failure ~cache_dir ~names c =
  List.find_map
    (fun (n, v) -> match v with Fail reason -> Some (n, reason) | _ -> None)
    (check ~cache_dir ~names c)
