(* The differential fuzzing stack (@fuzz-smoke): generator and shrinker
   determinism, shrinker invariants, a live injected-miscompile drill
   through the whole loop, a smoke slice of the six oracles, and the
   forever-replay of the checked-in corpus. Longer sweeps are plain
   [wishfuzz --count N] runs; this suite is the fast slice wired into
   [dune runtest]. *)

module Gen = Wish_fuzz.Gen
module Shrink = Wish_fuzz.Shrink
module Oracle = Wish_fuzz.Oracle
module Corpus = Wish_fuzz.Corpus
module Fuzz = Wish_fuzz.Fuzz
module Ast = Wish_compiler.Ast
module Faultpoint = Wish_util.Faultpoint

let check = Alcotest.check

(* Throwaway directory under the system temp root, removed afterwards. *)
let with_temp_dir prefix f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect ~finally:(fun () -> Oracle.remove_cache_dir dir) (fun () -> f dir)

(* Generator ---------------------------------------------------------- *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.to_string (Gen.generate seed) and b = Gen.to_string (Gen.generate seed) in
      check Alcotest.string (Printf.sprintf "seed %d byte-identical" seed) a b)
    [ 0; 1; 2005; 0x7fff_ffff; Gen.case_seed ~root:2005 42 ]

let test_gen_seed_matters () =
  (* Nearby case indices must not share structure (avalanche mix). *)
  let texts = List.init 16 (fun i -> Gen.to_string (Gen.generate (Gen.case_seed ~root:7 i))) in
  let distinct = List.sort_uniq compare texts in
  check Alcotest.int "16 distinct cases" 16 (List.length distinct)

(* Shrinker ----------------------------------------------------------- *)

(* Every candidate must be strictly smaller under [Shrink.size] — the
   termination argument of the greedy descent. *)
let test_shrink_candidates_strictly_smaller () =
  List.iter
    (fun seed ->
      let c = Gen.generate seed in
      let sz = Shrink.size c in
      List.iter
        (fun (what, c') ->
          if Shrink.size c' >= sz then
            Alcotest.failf "seed %d: candidate %s not smaller (%d >= %d)" seed what
              (Shrink.size c') sz)
        (Shrink.candidates c))
    [ 11; 12; 13; 14; 15 ]

(* A deterministic structural "failure": the case still stores to
   memory. The shrinker must preserve it (the result still fails),
   never grow the case, and replay the same trace byte-for-byte. *)
let has_store (c : Gen.case) =
  let rec expr_has = function
    | Ast.Int _ | Ast.Var _ -> false
    | Ast.Binop (_, a, b) | Ast.Cmp (_, a, b) -> expr_has a || expr_has b
    | Ast.Load e -> expr_has e
  in
  let rec stmt_has = function
    | Ast.Store (a, v) -> expr_has a || expr_has v || true
    | Ast.Assign (_, e) -> expr_has e
    | Ast.If (c, t, e) -> expr_has c || block_has t || block_has e
    | Ast.While (c, b) | Ast.Do_while (b, c) -> expr_has c || block_has b
    | Ast.For (_, lo, hi, b) -> expr_has lo || expr_has hi || block_has b
    | Ast.Call _ -> false
  and block_has b = List.exists stmt_has b in
  block_has c.Gen.c_ast.Ast.main
  || List.exists (fun (_, b) -> block_has b) c.Gen.c_ast.Ast.funcs

let test_shrink_invariants () =
  let seed = Gen.case_seed ~root:2005 3 in
  let c = Gen.generate seed in
  check Alcotest.bool "original fails" true (has_store c);
  let r = Shrink.minimize ~fails:has_store c in
  check Alcotest.bool "shrunk still fails" true (has_store r.Shrink.shrunk);
  check Alcotest.bool "never larger" true (Shrink.size r.Shrink.shrunk <= Shrink.size c);
  check Alcotest.int "steps = trace length" (List.length r.Shrink.trace) r.Shrink.steps

let test_shrink_trace_deterministic () =
  let seed = Gen.case_seed ~root:2005 5 in
  let run () = Shrink.minimize ~fails:has_store (Gen.generate seed) in
  let a = run () and b = run () in
  check Alcotest.(list string) "identical shrink trace" a.Shrink.trace b.Shrink.trace;
  check Alcotest.string "identical shrunk case" (Gen.to_string a.Shrink.shrunk)
    (Gen.to_string b.Shrink.shrunk);
  check Alcotest.int "identical evaluation count" a.Shrink.tried b.Shrink.tried

(* Injected-bug drill -------------------------------------------------- *)

(* Arm the emulator-compiler miscompile faultpoint and prove the whole
   loop catches it: the source oracle fails, the shrinker reduces the
   case to a handful of instructions, the repro lands in the corpus, and
   once the fault is gone the repro replays green. *)
let test_injected_bug_caught_and_shrunk () =
  with_temp_dir "wishfuzz-drill" (fun dir ->
      let corpus = Filename.concat dir "corpus" in
      let report =
        Fun.protect
          ~finally:(fun () -> Faultpoint.reset ())
          (fun () ->
            Faultpoint.arm "emu.compile.bug" ~times:1_000_000;
            Fuzz.run ~corpus_dir:corpus
              ~cache_dir:(Filename.concat dir "cache")
              ~max_failures:1 ~root:2005 ~count:1 ())
      in
      match report.Fuzz.r_failures with
      | [ f ] ->
        check Alcotest.string "source caught it" "source" (Oracle.name_id f.Fuzz.f_oracle);
        check Alcotest.bool "shrink made progress" true
          (f.Fuzz.f_size_after < f.Fuzz.f_size_before);
        let path =
          match f.Fuzz.f_repro with Some p -> p | None -> Alcotest.fail "no repro saved"
        in
        let repro = Corpus.load path in
        let insts = Wish_isa.Code.length (Wish_isa.Program.code repro.Corpus.program) in
        if insts > 10 then Alcotest.failf "repro not minimal: %d instructions" insts;
        (* With the fault gone, the repro documents a *fixed* bug; were
           it to come back, the repro's source words would catch it. *)
        List.iter
          (fun (o, v) ->
            match v with
            | Oracle.Fail r -> Alcotest.failf "clean replay fails %s: %s" o r
            | Oracle.Pass | Oracle.Skip _ -> ())
          (Corpus.replay repro);
        let armed =
          Fun.protect
            ~finally:(fun () -> Faultpoint.reset ())
            (fun () ->
              Faultpoint.arm "emu.compile.bug" ~times:1_000_000;
              Corpus.replay repro)
        in
        check Alcotest.bool "armed replay fails source" true
          (match List.assoc "source" armed with Oracle.Fail _ -> true | _ -> false)
      | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs))

(* Oracle smoke slice -------------------------------------------------- *)

let smoke_count = 120

let test_oracle_smoke () =
  with_temp_dir "wishfuzz-smoke" (fun dir ->
      let report = Fuzz.run ~cache_dir:dir ~root:2005 ~count:smoke_count () in
      check Alcotest.int "all cases checked" smoke_count report.Fuzz.r_count;
      List.iter
        (fun f ->
          Alcotest.failf "case %d (seed %d) fails %s: %s" f.Fuzz.f_index f.Fuzz.f_seed
            (Oracle.name_id f.Fuzz.f_oracle) f.Fuzz.f_reason)
        report.Fuzz.r_failures)

(* Without [cache_dir], the roundtrip oracle works in the process's own
   temp directory, which is there while the run checks cases and gone
   once it returns. *)
let test_default_cache_removed () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wishfuzz-cache-%d" (Unix.getpid ()))
  in
  let seen = ref false in
  let report =
    Fuzz.run ~oracles:[ Oracle.Roundtrip ]
      ~progress:(fun _ -> seen := !seen || Sys.file_exists dir)
      ~root:2005 ~count:3 ()
  in
  check Alcotest.int "no failure" 0 (List.length report.Fuzz.r_failures);
  check Alcotest.bool "the run used it" true !seen;
  check Alcotest.bool "and removed it" false (Sys.file_exists dir)

(* Corpus replay ------------------------------------------------------- *)

let test_corpus_replays_green () =
  List.iter
    (fun (file, verdicts) ->
      List.iter
        (fun (o, v) ->
          match v with
          | Oracle.Fail r -> Alcotest.failf "%s: %s regressed: %s" file o r
          | Oracle.Pass | Oracle.Skip _ -> ())
        verdicts)
    (Corpus.replay_dir "fuzz_corpus")

let test_corpus_roundtrip () =
  (* Saving and loading a repro is identity on the parts replay needs. *)
  with_temp_dir "wishfuzz-corpus" (fun dir ->
      let c = Gen.generate (Gen.case_seed ~root:2005 1) in
      let path = Corpus.save ~dir ~oracle:Oracle.Source ~reason:"unit test" ~steps:0 c in
      let r = Corpus.load path in
      check Alcotest.string "oracle id" "source" r.Corpus.oracle;
      check Alcotest.int "seed" c.Gen.c_seed r.Corpus.seed;
      check Alcotest.string "reason" "unit test" r.Corpus.reason;
      check
        Alcotest.(option (array int))
        "source words" (Result.to_option (Oracle.source_words c)) r.Corpus.source_words)

let () =
  Alcotest.run "wish_fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_gen_seed_matters;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "candidates strictly smaller" `Quick
            test_shrink_candidates_strictly_smaller;
          Alcotest.test_case "invariants" `Quick test_shrink_invariants;
          Alcotest.test_case "trace deterministic" `Quick test_shrink_trace_deterministic;
        ] );
      ( "drill",
        [ Alcotest.test_case "injected bug caught + shrunk" `Quick test_injected_bug_caught_and_shrunk ] );
      ( "smoke",
        [
          Alcotest.test_case "oracle slice" `Slow test_oracle_smoke;
          Alcotest.test_case "default cache removed" `Quick test_default_cache_removed;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replays green" `Quick test_corpus_replays_green;
          Alcotest.test_case "save/load round-trip" `Quick test_corpus_roundtrip;
        ] );
    ]
