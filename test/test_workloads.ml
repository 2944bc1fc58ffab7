(* Workload tests: each benchmark compiles into five architecturally
   equivalent binaries on every input, runs deterministically, and shows
   the branch behaviour its paper counterpart is meant to mimic. *)

open Wish_workloads

let check = Alcotest.check

let scale = 1

let compile (b : Bench.t) =
  Wish_compiler.Compiler.compile_all ~mem_words:b.mem_words ~name:b.name
    ~profile_data:(Bench.profile_data b) b.ast

(* Compile everything once; the equivalence sweep reuses these. *)
let all = Workloads.all ~scale
let compiled = lazy (List.map (fun b -> (b, compile b)) all)

let outcome p = (Wish_emu.State.outcome (snd (Wish_emu.Profile.of_program p))).memory_checksum

let test_catalog () =
  check Alcotest.int "nine benchmarks" 9 (List.length all);
  check
    Alcotest.(list string)
    "paper's Table 4 subset"
    [ "gzip"; "vpr"; "mcf"; "crafty"; "parser"; "gap"; "vortex"; "bzip2"; "twolf" ]
    (List.map (fun (b : Bench.t) -> b.name) all);
  List.iter
    (fun (b : Bench.t) ->
      check Alcotest.int (b.name ^ " has three inputs") 3 (List.length b.inputs);
      Alcotest.(check bool)
        (b.name ^ " profiles on a real input")
        true
        (List.exists (fun (i : Bench.input) -> i.label = b.profile_input) b.inputs))
    all

let test_find () =
  let b = Workloads.find ~scale "mcf" in
  check Alcotest.string "found" "mcf" b.name;
  Alcotest.check_raises "unknown"
    (Invalid_argument
       "unknown workload nope (know: gzip, vpr, mcf, crafty, parser, gap, vortex, bzip2, twolf)")
    (fun () -> ignore (Workloads.find ~scale "nope"))

(* The big architectural sweep: 9 benchmarks x 3 inputs x 5 binaries. *)
let test_equivalence ((b : Bench.t), bins) () =
  List.iter
    (fun (input : Bench.input) ->
      let reference = outcome (Bench.program_for b bins.Wish_compiler.Compiler.normal input.label) in
      List.iter
        (fun kind ->
          let p = Bench.program_for b (Wish_compiler.Compiler.binary bins kind) input.label in
          check Alcotest.int
            (Printf.sprintf "%s/%s/%s" b.name (Wish_compiler.Policy.kind_name kind) input.label)
            reference (outcome p))
        Wish_compiler.Compiler.all_kinds)
    b.inputs

let test_wish_binaries_have_wish_branches () =
  List.iter
    (fun ((b : Bench.t), bins) ->
      let wish_code = Wish_isa.Program.code bins.Wish_compiler.Compiler.wish_jjl in
      Alcotest.(check bool)
        (b.name ^ " wish-jjl has wish branches")
        true
        (Wish_isa.Code.static_wish_branches wish_code > 0);
      Alcotest.(check bool)
        (b.name ^ " normal has none")
        true
        (Wish_isa.Code.static_wish_branches (Wish_isa.Program.code bins.normal) = 0))
    (Lazy.force compiled)

(* Behavioural bands: the qualitative branch profile each benchmark was
   designed for (normal binary, input A). Simulation-based, so a handful
   of benchmarks only. *)
let misp_per_kuop name =
  let b = Workloads.find ~scale name in
  let bins = compile b in
  let p = Bench.program_for b bins.normal "A" in
  let s = Wish_sim.Runner.simulate p in
  1000.0 *. float_of_int s.mispredicts /. float_of_int s.retired_uops

let test_predictability_bands () =
  let easy = misp_per_kuop "vortex" and hard = misp_per_kuop "bzip2" in
  Alcotest.(check bool) "vortex predictable (paper: 0.8/1K)" true (easy < 8.0);
  Alcotest.(check bool) "bzip2 hard (paper: 8.6/1K)" true (hard > 10.0);
  Alcotest.(check bool) "ordering" true (easy < hard)

let test_mcf_predication_pathology () =
  (* The headline mcf behaviour (Figure 10): aggressive predication is far
     slower than branches; wish hardware recovers. *)
  let b = Workloads.find ~scale "mcf" in
  let bins = compile b in
  let run bin = (Wish_sim.Runner.simulate (Bench.program_for b bin "A")).Wish_sim.Runner.cycles in
  let normal = run bins.normal and base_max = run bins.base_max and wish = run bins.wish_jj in
  Alcotest.(check bool) "BASE-MAX much slower" true
    (float_of_int base_max > 1.5 *. float_of_int normal);
  Alcotest.(check bool) "wish rescues" true (float_of_int wish < 1.2 *. float_of_int normal)

let test_input_changes_behaviour () =
  (* gzip input A (incompressible) must mispredict more than input B. *)
  let b = Workloads.find ~scale "gzip" in
  let bins = compile b in
  let misp label =
    let s = Wish_sim.Runner.simulate (Bench.program_for b bins.normal label) in
    1000.0 *. float_of_int s.mispredicts /. float_of_int s.retired_uops
  in
  Alcotest.(check bool) "A harder than B" true (misp "A" > misp "B")

let test_retirement_matches_trace () =
  (* Oracle-consistency invariant: each correct-path µop the simulator
     retires consumes exactly one trace entry. Binaries without wish
     branches can never skip entries, so retirement equals the trace
     length; wish binaries retire at most that many (high-confidence taken
     wish jumps legitimately skip the predicated region's entries). *)
  List.iter
    (fun name ->
      let b = Workloads.find ~scale name in
      let bins = compile b in
      List.iter
        (fun kind ->
          let p = Bench.program_for b (Wish_compiler.Compiler.binary bins kind) "A" in
          let s = Wish_sim.Runner.simulate p in
          let label k = Printf.sprintf "%s/%s %s" name (Wish_compiler.Policy.kind_name kind) k in
          match kind with
          | Wish_compiler.Policy.Normal | Wish_compiler.Policy.Base_def
          | Wish_compiler.Policy.Base_max ->
            check Alcotest.int (label "retired = trace") s.dynamic_insts s.retired_uops
          | Wish_compiler.Policy.Wish_jj | Wish_compiler.Policy.Wish_jjl ->
            Alcotest.(check bool) (label "retired <= trace") true
              (s.retired_uops <= s.dynamic_insts);
            Alcotest.(check bool)
              (label "retired within skip bound") true
              (s.retired_uops > s.dynamic_insts / 2))
        Wish_compiler.Compiler.all_kinds)
    [ "gzip"; "vortex" ]

(* The initial data-memory image of every workload input, pinned by the
   MD5 of its words (8 bytes each, little-endian), as built before inputs
   became segments. Inputs do not depend on the scale. A change to any
   builder's draw order or layout shows up here. *)
let pinned_images =
  [
    ("gzip", "A", "c5edbc34d3939dc470a3458d7f6904f7");
    ("gzip", "B", "007beab11d8ed891d331982872055016");
    ("gzip", "C", "3263afd6c2a462985d6c7bf04b0d295b");
    ("vpr", "A", "d6e2620807d7401a2df718155d4afbf7");
    ("vpr", "B", "ea0b72cbafcc96368b27acc8e554012e");
    ("vpr", "C", "3348d50e6bc708b0a305e215df4a334f");
    ("mcf", "A", "d8d700743a6dab93ab3f78760e080775");
    ("mcf", "B", "1982d47e5eb50d49fd1c063b7932298c");
    ("mcf", "C", "333cf2d1636b9bbb062b574e47220036");
    ("crafty", "A", "bd4f188cec7b48587f48637e0db5bff8");
    ("crafty", "B", "c12d13605550ac8c7bd4591f87b44760");
    ("crafty", "C", "8be9c3066f912c4cf9e68474c4a18617");
    ("parser", "A", "56a32bd2da8a4c8aff9b3837955d7c39");
    ("parser", "B", "242262414bf3b0d1d3adb55a248ef258");
    ("parser", "C", "8f529d89895dbb019e307376cefdbc95");
    ("gap", "A", "5ff166f36d278070859329cf2535f351");
    ("gap", "B", "04d68a0c5e8d08e4f4fcbc17d1338b8d");
    ("gap", "C", "dc8c0a6e6248b29090c5274eebf990a3");
    ("vortex", "A", "8b753a7b4e803811b87122d06e77d1fd");
    ("vortex", "B", "1fdbb0b0434c534469cf3cb06a875993");
    ("vortex", "C", "4c8f91d2c85ef412e5802ec338940223");
    ("bzip2", "A", "7f08393c01c9de4c3bca7747e9f6ec51");
    ("bzip2", "B", "2591af7619b3eec8bff7667a2cae3c66");
    ("bzip2", "C", "a2c665665764d1849513d77e5dd884bb");
    ("twolf", "A", "a037edf1b7f47b9dc3f5d137b016b1e8");
    ("twolf", "B", "5f4b24101d63e3e4c429d545b5999ea2");
    ("twolf", "C", "7d6b9a3524457f47fe0985c60bc45829");
  ]

let image_md5 p =
  let m = Wish_emu.Memory.of_program p in
  let n = Wish_emu.Memory.size m in
  let buf = Bytes.create (8 * n) in
  for a = 0 to n - 1 do
    Bytes.set_int64_le buf (8 * a) (Int64.of_int (Wish_emu.Memory.read m a))
  done;
  Digest.to_hex (Digest.bytes buf)

let test_pinned_images () =
  let seen =
    List.concat_map
      (fun ((b : Bench.t), bins) ->
        List.map
          (fun (i : Bench.input) ->
            let p = Bench.program_for b bins.Wish_compiler.Compiler.normal i.label in
            (b.name, i.label, image_md5 p))
          b.inputs)
      (Lazy.force compiled)
  in
  check Alcotest.(list (triple string string string)) "input images" pinned_images seen

(* Inputs are flat segments: the heap they hold is the initialized words
   plus a few words of headers, where an (address, value) list took
   about six. *)
let test_inputs_footprint () =
  List.iter
    (fun (b : Bench.t) ->
      let words =
        List.fold_left
          (fun acc (i : Bench.input) ->
            List.fold_left
              (fun acc (s : Wish_isa.Program.segment) -> acc + Array.length s.words)
              acc i.data)
          0 b.inputs
      in
      let ratio = float_of_int (Obj.reachable_words (Obj.repr b.inputs)) /. float_of_int words in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.4f heap words per data word <= 1.05" b.name ratio)
        true (ratio <= 1.05))
    all

(* Inputs do not depend on the scale, so every scale of a bench holds
   the one copy of its input images built first. *)
let test_inputs_shared_across_scales () =
  let one = Workloads.find ~scale:1 "mcf" and three = Workloads.find ~scale:3 "mcf" in
  Alcotest.(check bool) "different kernels" false (one.ast = three.ast);
  List.iter2
    (fun (a : Bench.input) (b : Bench.input) ->
      List.iter2
        (fun (x : Wish_isa.Program.segment) (y : Wish_isa.Program.segment) ->
          Alcotest.(check bool)
            (Printf.sprintf "input %s segment at %d shared" a.label x.base)
            true (x.words == y.words))
        a.data b.data)
    one.inputs three.inputs

let test_scale_parameter () =
  let small = Workloads.find ~scale:1 "gap" and big = Workloads.find ~scale:2 "gap" in
  let insts (b : Bench.t) =
    let bins = compile b in
    (snd (Wish_emu.Profile.of_program (Bench.program_for b bins.normal "A"))).Wish_emu.State.retired
  in
  Alcotest.(check bool) "scale grows the run" true (insts big > insts small * 3 / 2)

let () =
  let equivalence_cases =
    List.map
      (fun ((b : Bench.t), bins) ->
        Alcotest.test_case (b.name ^ " five binaries equivalent on all inputs") `Slow
          (test_equivalence (b, bins)))
      (Lazy.force compiled)
  in
  Alcotest.run "wish_workloads"
    [
      ( "catalog",
        [
          Alcotest.test_case "nine benchmarks" `Quick test_catalog;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "wish branches present" `Quick test_wish_binaries_have_wish_branches;
          Alcotest.test_case "pinned input images" `Quick test_pinned_images;
          Alcotest.test_case "inputs footprint" `Quick test_inputs_footprint;
          Alcotest.test_case "inputs shared across scales" `Quick test_inputs_shared_across_scales;
        ] );
      ("equivalence", equivalence_cases);
      ( "behaviour",
        [
          Alcotest.test_case "predictability bands" `Slow test_predictability_bands;
          Alcotest.test_case "mcf pathology" `Slow test_mcf_predication_pathology;
          Alcotest.test_case "input sensitivity" `Slow test_input_changes_behaviour;
          Alcotest.test_case "retirement matches trace" `Slow test_retirement_matches_trace;
          Alcotest.test_case "scale parameter" `Slow test_scale_parameter;
        ] );
    ]
