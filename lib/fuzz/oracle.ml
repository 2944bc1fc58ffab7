(** The five differential oracles — see the interface for the contract
    each one checks. Everything here is deterministic: fixed fuel, fixed
    machine configuration, no wall clock, no randomness, so a verdict
    replays bit-for-bit from a seed. *)

module Ast = Wish_compiler.Ast
module Compiler = Wish_compiler.Compiler
module Policy = Wish_compiler.Policy
module Program = Wish_isa.Program
module Parse = Wish_isa.Parse
module State = Wish_emu.State
module Exec = Wish_emu.Exec
module Ecompiled = Wish_emu.Compiled
module Trace = Wish_emu.Trace
module Memory = Wish_emu.Memory
module Core = Wish_sim.Core
module Scompiled = Wish_sim.Compiled
module Runner = Wish_sim.Runner
module Config = Wish_sim.Config
module Counters = Wish_sim.Counters
module Cache = Wish_experiments.Cache

type verdict = Pass | Skip of string | Fail of string

type name = Lockstep | Binaries | Sim_identity | Sampled | Roundtrip

let all_names = [ Lockstep; Binaries; Sim_identity; Sampled; Roundtrip ]

let name_id = function
  | Lockstep -> "lockstep"
  | Binaries -> "binaries"
  | Sim_identity -> "sim"
  | Sampled -> "sampled"
  | Roundtrip -> "roundtrip"

let name_of_id = function
  | "lockstep" -> Some Lockstep
  | "binaries" -> Some Binaries
  | "sim" -> Some Sim_identity
  | "sampled" -> Some Sampled
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

(* --- (a) interpreted vs compiled emulator, in lockstep ---------------- *)

let same_out (a : Exec.out) (b : Exec.out) =
  a.Exec.o_pc = b.Exec.o_pc
  && a.Exec.o_guard_true = b.Exec.o_guard_true
  && a.Exec.o_taken = b.Exec.o_taken
  && a.Exec.o_next_pc = b.Exec.o_next_pc
  && a.Exec.o_addr = b.Exec.o_addr

let mode_name = function Exec.Architectural -> "arch" | Exec.Predicate_through -> "pthru"

let lockstep_mode mode program =
  let code = Program.code program in
  let st_i = State.create program and st_c = State.create program in
  let t = Ecompiled.compile ~mode code in
  let oi = Exec.make_out () and oc = Exec.make_out () in
  let tag = mode_name mode in
  let rec go () =
    if st_i.State.halted || st_c.State.halted then
      if st_i.State.halted <> st_c.State.halted then
        failf "%s: halt divergence at retired=%d" tag st_i.State.retired
      else if State.outcome st_i <> State.outcome st_c then
        failf "%s: final outcomes differ" tag
      else Pass
    else if st_i.State.retired >= fuel then Skip (tag ^ ": fuel exhausted")
    else begin
      let ri = try Ok (Exec.step_into mode code st_i oi) with e -> Error e in
      let rc = try Ok (Ecompiled.step t st_c oc) with e -> Error e in
      match (ri, rc) with
      | Ok (), Ok () ->
        if not (same_out oi oc) then
          failf "%s: step facts diverge at retired=%d pc=%d (compiled pc=%d)" tag
            st_i.State.retired oi.Exec.o_pc oc.Exec.o_pc
        else if st_i.State.pc <> st_c.State.pc || st_i.State.retired <> st_c.State.retired then
          failf "%s: machine state diverges after pc=%d (pc %d vs %d, retired %d vs %d)" tag
            oi.Exec.o_pc st_i.State.pc st_c.State.pc st_i.State.retired st_c.State.retired
        else go ()
      | Error a, Error b ->
        (* Both sides trapping identically at the same step is agreement:
           the program ends here either way. *)
        if String.equal (exn_label a) (exn_label b) then Pass
        else failf "%s: exception divergence at retired=%d: %s vs %s" tag st_i.State.retired
            (exn_label a) (exn_label b)
      | Error a, Ok () ->
        failf "%s: only the interpreter raised at retired=%d: %s" tag st_i.State.retired
          (exn_label a)
      | Ok (), Error b ->
        failf "%s: only the compiled emulator raised at retired=%d: %s" tag st_c.State.retired
          (exn_label b)
    end
  in
  go ()

let lockstep_program program =
  combine [ lockstep_mode Exec.Architectural program; lockstep_mode Exec.Predicate_through program ]

(* --- (b) the five binary kinds agree on observable output ------------- *)

let run_arch program = try Ok (Exec.run ~mode:Exec.Architectural ~fuel program) with e -> Error e

let out_words (c : Gen.case) (st : State.t) =
  List.init c.Gen.c_outs (fun i -> Memory.read st.State.mem (Gen.out_base + i))

let binaries_verdict (c : Gen.case) (eval : Policy.kind -> Program.t) =
  match run_arch (eval Policy.Normal) with
  | Error e -> Skip ("normal binary raised: " ^ exn_label e)
  | Ok golden ->
    let golden_sum = (State.outcome golden).State.memory_checksum in
    let golden_outs = out_words c golden in
    let check_kind kind =
      if kind = Policy.Normal then Pass
      else
        match run_arch (eval kind) with
        | Error e -> failf "%s raised where normal did not: %s" (Policy.kind_name kind) (exn_label e)
        | Ok st ->
          let sum = (State.outcome st).State.memory_checksum in
          let outs = out_words c st in
          if outs <> golden_outs then
            let slot =
              let rec first i = function
                | a :: t, b :: u -> if a <> b then i else first (i + 1) (t, u)
                | _ -> i
              in
              first 0 (golden_outs, outs)
            in
            failf "%s: live-out slot %d differs from normal" (Policy.kind_name kind) slot
          else if sum <> golden_sum then
            failf "%s: memory checksum differs from normal" (Policy.kind_name kind)
          else Pass
    in
    combine (List.map check_kind Compiler.all_kinds)

(* --- (c) interpreted vs compiled timing core -------------------------- *)

let gen_trace program =
  match Trace.generate ~fuel program with
  | trace, _final ->
    if Trace.length trace > sim_trace_cap then Error "trace too long for the timing oracles"
    else Ok trace
  | exception (Exec.Out_of_fuel _ | Trace.Out_of_fuel _) -> Error "trace generation out of fuel"
  | exception Memory.Fault _ -> Error "program faults"
  | exception State.Call_stack_error _ -> Error "call stack trap"

let run_interp config program trace =
  let core = Core.create config program trace in
  ignore (Core.run core);
  (Core.cycles core, Core.counters core, Core.hier_stats core)

let run_scompiled config program trace =
  let core = Scompiled.create config program trace in
  ignore (Scompiled.run core);
  (Scompiled.cycles core, Scompiled.counters core, Scompiled.hier_stats core)

let first_counter_diff ci cc =
  List.find_opt (fun c -> Counters.get ci c <> Counters.get cc c) Counters.all

let sim_identity_program program =
  match gen_trace program with
  | Error reason -> Skip reason
  | Ok trace -> (
    let config = Config.default in
    let ri = try Ok (run_interp config program trace) with e -> Error e in
    let rc = try Ok (run_scompiled config program trace) with e -> Error e in
    match (ri, rc) with
    | Error a, Error b ->
      if String.equal (exn_label a) (exn_label b) then Skip ("both cores raised: " ^ exn_label a)
      else failf "core exception divergence: %s vs %s" (exn_label a) (exn_label b)
    | Error a, Ok _ -> failf "only the interpreted core raised: %s" (exn_label a)
    | Ok _, Error b -> failf "only the compiled core raised: %s" (exn_label b)
    | Ok (ci, si, mi), Ok (cc, sc, mc) ->
      if ci <> cc then failf "cycles differ: interp %d, compiled %d" ci cc
      else if mi <> mc then Fail "memory-hierarchy stats differ"
      else
        match first_counter_diff si sc with
        | Some c ->
          failf "counters differ: %s interp %d, compiled %d" (Counters.name c) (Counters.get si c)
            (Counters.get sc c)
        | None -> Pass)

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
              Fail "fused-warming report differs from trace-based warming"
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

(* --- (e) artifact round-trips: text and cache ------------------------- *)

let default_cache_dir =
  lazy
    (Filename.concat (Filename.get_temp_dir_name ())
       (Printf.sprintf "wishfuzz-cache-%d" (Unix.getpid ())))

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

let check ?cache_dir ~names (c : Gen.case) =
  let cache_dir = match cache_dir with Some d -> d | None -> Lazy.force default_cache_dir in
  match compile c with
  | Error reason -> List.map (fun n -> (n, Skip ("compile: " ^ reason))) names
  | Ok bins ->
    let eval_data = Program.segments_of_pairs c.Gen.c_eval_data in
    let eval kind = Program.with_data (Compiler.binary bins kind) eval_data in
    let run = function
      | Lockstep ->
        combine
          [ lockstep_program (eval Policy.Normal); lockstep_program (eval Policy.Wish_jjl) ]
      | Binaries -> binaries_verdict c eval
      | Sim_identity ->
        combine
          [
            sim_identity_program (eval Policy.Base_def);
            sim_identity_program (eval Policy.Wish_jjl);
          ]
      | Sampled -> sampled_verdict (eval Policy.Wish_jjl)
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

let first_failure ?cache_dir ~names c =
  List.find_map
    (fun (n, v) -> match v with Fail reason -> Some (n, reason) | _ -> None)
    (check ?cache_dir ~names c)
