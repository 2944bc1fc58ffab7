(** Convenience driver: trace a program with the emulator, simulate it, and
    summarize the interesting numbers. *)

type summary = {
  cycles : int;
  dynamic_insts : int; (* ISA instructions retired (trace entries) *)
  retired_uops : int; (* correct-path µops retired *)
  retired_phantom : int;
  fetched_uops : int;
  flushes : int;
  mispredicts : int; (* retired mispredicted conditional branches *)
  cond_branches : int;
  upc : float; (* retired µops per cycle *)
  counts : Counters.t;
  mem : Wish_mem.Hierarchy.stats;
}

let summarize counts cycles mem =
  let g = Counters.get counts in
  {
    cycles;
    dynamic_insts = 0;
    retired_uops = g Counters.retired_correct;
    retired_phantom = g Counters.retired_phantom;
    fetched_uops = g Counters.fetched_uops;
    flushes = g Counters.flushes;
    mispredicts = g Counters.mispredicts_retired;
    cond_branches = g Counters.cond_branches_retired;
    upc =
      (if cycles = 0 then 0.0
       else float_of_int (g Counters.retired_correct) /. float_of_int cycles);
    counts;
    mem;
  }

(** [simulate ?config ?streaming ?trace program] — [trace] may be
    supplied to reuse a previously generated trace for the same program.
    [streaming] (default [false]) fuses emulation into simulation: the
    oracle pulls trace chunks on demand and retirement recycles them, so
    peak trace-resident memory is bounded by the pipeline's look-back
    window instead of the dynamic instruction count. Both paths produce
    identical summaries (the test suite checks this). *)
let simulate ?(config = Config.default) ?(streaming = false) ?trace
    (program : Wish_isa.Program.t) =
  let trace =
    match trace with
    | Some t -> t
    | None ->
      if streaming then Wish_emu.Trace.stream program
      else
        let t, _final = Wish_emu.Trace.generate program in
        t
  in
  let core = Compiled.run (Compiled.create config program trace) in
  let s = summarize (Compiled.counters core) (Compiled.cycles core) (Compiled.hier_stats core) in
  (* A streamed trace has been pulled through its final entry by the time
     the core retires Halt, so [length] is the full dynamic count here too. *)
  { s with dynamic_insts = Wish_emu.Trace.length trace }

(* The program's exact dynamic length, from one emulator pass that
   records no entry and runs no warm hook. *)
let dynamic_length (program : Wish_isa.Program.t) =
  let n = Wish_isa.Code.length (Wish_isa.Program.code program) in
  Wish_emu.Trace.warm_to
    (Wish_emu.Trace.stream program)
    ~hooks:(Array.make n Wish_emu.Trace.no_hook)
    ~until:max_int

(** [simulate_sampled] — the sampled counterpart of {!simulate}: same
    summary shape, numbers estimated from the measurement windows, plus
    the full {!Sampler.report}. The headline counters (cycles, retired
    µops, mispredicts) use the sampler's stratified estimates; every
    other number is its window sum scaled by total ÷ measured entries. *)
let simulate_sampled ?(config = Config.default) ?pool ?(spec : Sampler.spec option)
    ?(streaming = false) ?trace (program : Wish_isa.Program.t) =
  (* An auto spec is scaled to the dynamic length: a materialized trace
     knows it, and without a trace an unrecorded pass counts it first. A
     streaming run's length is unknown up front. *)
  let spec =
    match (spec, trace) with
    | Some s, _ -> s
    | None, Some t when not (Wish_emu.Trace.is_streaming t) ->
      Sampler.auto ~length:(Wish_emu.Trace.length t)
    | None, Some _ -> Sampler.default_spec
    | None, None when streaming -> Sampler.default_spec
    | None, None -> Sampler.auto ~length:(dynamic_length program)
  in
  let r = Sampler.run ?pool ?trace ~config ~spec program in
  let counts =
    Counters.scale r.Sampler.r_measured ~num:r.r_total_insts ~den:r.r_measured_entries
  in
  let g = Counters.get counts in
  let round f = int_of_float (Float.round f) in
  let retired_uops = round (r.r_upc *. float_of_int r.r_est_cycles) in
  let summary =
    {
      cycles = r.r_est_cycles;
      dynamic_insts = r.r_total_insts;
      retired_uops;
      retired_phantom = g Counters.retired_phantom;
      fetched_uops = g Counters.fetched_uops;
      flushes = g Counters.flushes;
      mispredicts = round (r.r_misp_per_1k *. float_of_int retired_uops /. 1000.0);
      cond_branches = g Counters.cond_branches_retired;
      upc = r.r_upc;
      counts;
      mem = r.r_mem;
    }
  in
  (summary, r)
