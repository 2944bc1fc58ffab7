(** wishsim — simulate one workload binary on the wish-branch machine.

    Examples:
      wishsim -b gzip -k wish-jump-join-loop -i A
      wishsim -b mcf -k base-max --no-wish-hardware --rob 128 --stats
      wishsim -b mcf --scale 10 --sample auto -j 2 *)

open Cmdliner
module Lab = Wish_experiments.Lab

let run bench_name kind_name input scale asm_file rob stages mech_select wish_hw perfect_bp
    perfect_conf no_depend no_fetch streaming sample jobs show_stats show_code =
  Wish_util.Faultpoint.arm_from_env ();
  let jobs =
    match Wish_util.Pool.jobs_of_string jobs with
    | Ok n -> n
    | Error e ->
      Fmt.epr "--jobs %s: %s@." jobs e;
      exit 2
  in
  if rob < 1 then begin
    Fmt.epr "--rob %d: must be at least 1@." rob;
    exit 2
  end;
  if stages < 3 then begin
    Fmt.epr "--stages %d: must be at least 3@." stages;
    exit 2
  end;
  let sample_spec =
    (* [None]: exact. [Some None]: sampled, auto spec. [Some (Some s)]:
       sampled with an explicit W:D spec. *)
    match sample with
    | None -> None
    | Some "auto" -> Some None
    | Some str -> (
      match Wish_sim.Sampler.of_string str with
      | Ok s -> Some (Some s)
      | Error e ->
        Fmt.epr "--sample %s: %s@." str e;
        exit 2)
  in
  (* Workload mode compiles through a (serial) Lab; every exit path —
     including parse/lookup errors below — must release it, hence the
     [Fun.protect]. *)
  let lab = ref None in
  Fun.protect
    ~finally:(fun () -> Option.iter Lab.shutdown !lab)
    (fun () ->
      let program, bench_label =
        match asm_file with
        | Some path ->
          let p = try Wish_isa.Parse.program_of_file path with
            | Wish_isa.Parse.Parse_error { line; message } ->
              Fmt.epr "%s:%d: %s@." path line message;
              exit 2
            | Sys_error e ->
              Fmt.epr "%s@." e;
              exit 2
          in
          (p, path)
        | None ->
          let kind =
            match
              List.find_opt
                (fun k -> Wish_compiler.Policy.kind_name k = kind_name)
                Wish_compiler.Compiler.all_kinds
            with
            | Some k -> k
            | None ->
              Fmt.epr "unknown binary kind %s@." kind_name;
              exit 2
          in
          (* An unknown bench, a scale below 1 or an unknown input is a
             usage error, caught before anything compiles. *)
          let l =
            match
              let b = Wish_workloads.Workloads.find ~scale bench_name in
              ignore (Wish_workloads.Bench.input b input);
              Lab.create ~scale ~names:[ bench_name ] ()
            with
            | l -> l
            | exception Invalid_argument e ->
              Fmt.epr "%s@." e;
              exit 2
          in
          lab := Some l;
          (Lab.program l ~bench:bench_name ~kind ~input, bench_name)
      in
      if show_code then Fmt.pr "%a@." Wish_isa.Code.pp (Wish_isa.Program.code program);
      let config =
        let open Wish_sim.Config in
        let c = with_rob default rob in
        let c = with_pipeline_stages c stages in
        {
          c with
          mech = (if mech_select then Select_uop else C_style);
          wish_hardware = wish_hw;
          knobs = { perfect_bp; perfect_conf; no_depend; no_fetch };
        }
      in
      let trace = if streaming then Some (Wish_emu.Trace.stream program) else None in
      let s, report =
        match sample_spec with
        | None -> (Wish_sim.Runner.simulate ~config ~streaming ?trace program, None)
        | Some spec ->
          let pool = if jobs > 1 then Some (Wish_util.Pool.create ~size:jobs ()) else None in
          Fun.protect
            ~finally:(fun () -> Option.iter Wish_util.Pool.shutdown pool)
            (fun () ->
              let s, r =
                Wish_sim.Runner.simulate_sampled ?pool ?spec ~config ?trace program
              in
              (s, Some r))
      in
      Fmt.pr "workload      %s (input %s, scale %d)@." bench_label input scale;
      Fmt.pr "binary        %s@." kind_name;
      Fmt.pr "dynamic insts %d@." s.dynamic_insts;
      Fmt.pr "retired uops  %d (+%d phantom)@." s.retired_uops s.retired_phantom;
      Fmt.pr "cycles        %d@." s.cycles;
      Fmt.pr "uPC           %.3f@." s.upc;
      Fmt.pr "branches      %d cond retired, %d mispredicted, %d flushes@." s.cond_branches
        s.mispredicts s.flushes;
      Fmt.pr "caches        L1D %d/%d miss, L2 %d/%d miss, L1I %d/%d miss@." s.mem.l1d_misses
        s.mem.l1d_accesses s.mem.l2_misses s.mem.l2_accesses s.mem.l1i_misses s.mem.l1i_accesses;
      (match report with
      | Some r ->
        Fmt.pr "sampled       spec %s, %d windows, %d/%d entries measured (%.1f%%)%s@."
          (Wish_sim.Sampler.to_string r.Wish_sim.Sampler.r_spec)
          (List.length r.r_windows) r.r_measured_entries r.r_total_insts
          (100.0 *. float_of_int r.r_measured_entries /. float_of_int (max 1 r.r_total_insts))
          (if jobs > 1 then Fmt.str ", %d window domains" jobs else "");
        Fmt.pr "              uPC %.4f +/- %.4f (95%% CI), misp/1K %.2f +/- %.2f, est cycles %d@."
          r.r_upc r.r_upc_ci r.r_misp_per_1k r.r_misp_ci r.r_est_cycles
      | None -> ());
      (match trace with
      | Some tr ->
        Fmt.pr "streaming     peak %d resident trace entries (%d-entry chunks); peak RSS %d KiB@."
          (Wish_emu.Trace.peak_resident_entries tr)
          (Wish_emu.Trace.chunk_capacity tr)
          (Wish_util.Gc_stats.peak_rss_kb ())
      | None -> ());
      if show_stats then Fmt.pr "@.-- raw counters --@.%a" Wish_sim.Counters.pp s.counts)

let cmd =
  let bench =
    Arg.(value & opt string "gzip" & info [ "b"; "bench" ] ~doc:"Workload name (gzip, vpr, ...)")
  in
  let kind =
    Arg.(
      value
      & opt string "wish-jump-join-loop"
      & info [ "k"; "kind" ]
          ~doc:"Binary kind: normal, base-def, base-max, wish-jump-join, wish-jump-join-loop")
  in
  let input = Arg.(value & opt string "A" & info [ "i"; "input" ] ~doc:"Input set label (A/B/C)") in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Workload scale factor") in
  let asm_file =
    Arg.(value & opt (some string) None
         & info [ "asm" ] ~doc:"Simulate a .wisc assembly file instead of a workload")
  in
  let rob = Arg.(value & opt int 512 & info [ "rob" ] ~doc:"Instruction window size") in
  let stages = Arg.(value & opt int 30 & info [ "stages" ] ~doc:"Pipeline depth") in
  let mech = Arg.(value & flag & info [ "select-uop" ] ~doc:"Use the select-uop mechanism") in
  let wish_hw =
    Arg.(
      value & opt bool true
      & info [ "wish-hardware" ] ~doc:"Enable wish-branch hardware (false: wish branches act as normal)")
  in
  let pbp = Arg.(value & flag & info [ "perfect-bp" ] ~doc:"Oracle branch prediction") in
  let pcf = Arg.(value & flag & info [ "perfect-conf" ] ~doc:"Oracle confidence estimation") in
  let nd = Arg.(value & flag & info [ "no-depend" ] ~doc:"Remove predicate data dependencies (oracle)") in
  let nf = Arg.(value & flag & info [ "no-fetch" ] ~doc:"Drop false-predicated uops at fetch (oracle)") in
  let streaming =
    Arg.(value & flag
         & info [ "stream" ]
             ~doc:"Fuse emulation into simulation through a bounded-memory streaming trace")
  in
  let sample =
    Arg.(value & opt (some string) None
         & info [ "sample" ]
             ~doc:"Sampled simulation: functional warming with W:D (warm:detail entries) \
                   measurement windows, or 'auto' to scale the spec to the trace")
  in
  let jobs =
    Arg.(value & opt string "auto"
         & info [ "j"; "jobs" ]
             ~doc:"Worker domains for a sampled run's measurement windows (a pool is used \
                   when this is above 1): an integer, or $(b,auto) (the default) for the \
                   recommended domain count (the coordinating domain sleeps while the \
                   windows run), never below 1")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Dump raw statistics counters") in
  let code = Arg.(value & flag & info [ "code" ] ~doc:"Print the binary's code listing") in
  Cmd.v
    (Cmd.info "wishsim" ~doc:"Cycle-level simulation of wish-branch binaries")
    Term.(
      const run $ bench $ kind $ input $ scale $ asm_file $ rob $ stages $ mech $ wish_hw $ pbp
      $ pcf $ nd $ nf $ streaming $ sample $ jobs $ stats $ code)

let () = exit (Cmd.eval cmd)
