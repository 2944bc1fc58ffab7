(* The benchmark's reducers: quartiles agree with Python's
   statistics.quantiles(n=4) (the reference values below were computed
   with it), the tail-percentile rule, the compare verdicts, and exact
   JSON round-trips through Perf_json. *)

open Wish_perf
module J = Wish_util.Perf_json

let feq = Alcotest.float 1e-12
let triple = Alcotest.(triple feq feq feq)

let test_median () =
  Alcotest.check feq "odd" 3.0 (Reduce.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check feq "even" 2.5 (Reduce.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check feq "one" 7.0 (Reduce.median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Reduce.median: no samples") (fun () ->
      ignore (Reduce.median []))

let test_quartiles () =
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (Reduce.quartiles [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.check triple "three" (1.0, 3.0, 5.0) (Reduce.quartiles [ 5.0; 1.0; 3.0 ]);
  (* Two samples extrapolate, exactly as Python does. *)
  Alcotest.check triple "two" (0.25, 5.5, 10.75) (Reduce.quartiles [ 2.0; 9.0 ]);
  Alcotest.check triple "ten" (1.75, 3.5, 5.25)
    (Reduce.quartiles [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0; 5.0; 3.0 ]);
  Alcotest.check triple "one" (7.0, 7.0, 7.0) (Reduce.quartiles [ 7.0 ]);
  Alcotest.check feq "spread" 1.0 (Reduce.spread [ 1.0; 2.0; 3.0; 4.0 ])

let ints n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  let pct = Alcotest.(option (pair feq feq)) in
  Alcotest.check pct "19 samples: nothing above the median qualifies" None (Reduce.tail (ints 19));
  (* p75 of 40 is rank 30: exactly ten samples beyond it. *)
  Alcotest.check pct "40 samples: p75" (Some (75.0, 30.0)) (Reduce.tail (ints 40));
  Alcotest.check pct "39 samples: p75 has only nine beyond" None (Reduce.tail (ints 39));
  Alcotest.check pct "100 samples: p90" (Some (90.0, 90.0)) (Reduce.tail (ints 100));
  Alcotest.check pct "1000 samples: p99" (Some (99.0, 990.0)) (Reduce.tail (ints 1000));
  Alcotest.check pct "10000 samples: p99.9" (Some (99.9, 9990.0)) (Reduce.tail (ints 10000))

let verdict = Alcotest.testable (fun ppf v -> Fmt.string ppf (Reduce.verdict_name v)) ( = )

let test_verdict () =
  let v ?(better = Reduce.Lower) ?(bound = 0.1) old fresh =
    Reduce.verdict ~better ~bound ~old ~fresh
  in
  let steady = [ 10.0; 10.1; 9.9; 10.0 ] in
  Alcotest.check verdict "same" Reduce.Unchanged (v steady [ 10.05; 9.95; 10.0; 10.02 ]);
  Alcotest.check verdict "within bound" Reduce.Unchanged (v steady [ 10.8; 10.7; 10.9; 10.8 ]);
  Alcotest.check verdict "worse" Reduce.Regressed (v steady [ 12.0; 12.1; 11.9; 12.0 ]);
  Alcotest.check verdict "higher is better: worse" Reduce.Regressed
    (v ~better:Reduce.Higher steady [ 8.0; 8.1; 7.9; 8.0 ]);
  Alcotest.check verdict "better, 16 pairs all won" Reduce.Improved
    (v steady [ 8.0; 8.1; 7.9; 8.0 ]);
  Alcotest.check verdict "better but only 4 pairs" Reduce.Unresolved
    (v [ 10.0; 10.1 ] [ 8.0; 8.1 ]);
  Alcotest.check verdict "noisy" Reduce.Unresolved (v [ 5.0; 10.0; 15.0; 10.0 ] [ 11.0; 10.0; 9.0 ]);
  Alcotest.check verdict "noisy but every fresh run better" Reduce.Improved
    (v [ 5.0; 10.0; 15.0; 10.0 ] [ 1.0; 1.5; 1.2 ]);
  Alcotest.check verdict "noisy, all better, short of a gain" Reduce.Unchanged
    (v [ 5.0; 10.0; 15.0; 10.0 ] [ 4.9; 4.8 ]);
  Alcotest.check verdict "zero bound: any loss regresses" Reduce.Regressed
    (v ~bound:0.0 [ 0.0 ] [ 0.01 ])

let roundtrip v =
  match J.parse (Json.to_string v) with
  | Ok v' -> v' = v
  | Error e -> Alcotest.fail e

let roundtrip_indented v =
  match J.parse (Json.to_string ~indent:true v) with
  | Ok v' -> v' = v
  | Error e -> Alcotest.fail e

let test_json () =
  let record =
    J.Obj
      [
        ("schema", J.String "wish-perf/1");
        ("floats", J.List (List.map (fun f -> J.Float f) [ 16.350005626678467; 0.1; 1e-9; 1e22; -0.0; 3.0; 2.5e-300 ]));
        ("int", J.Int 54_500_000);
        ("nested", J.Obj [ ("tail", J.Null); ("ok", J.Bool true); ("s", J.String "a\"b\\c\n\t") ]);
        ("empty", J.Obj []);
        ("lists", J.List [ J.List []; J.Obj [ ("x", J.Float 1.5) ] ]);
      ]
  in
  Alcotest.(check bool) "one line" true (roundtrip record);
  Alcotest.(check bool) "indented" true (roundtrip_indented record);
  Alcotest.(check string) "integral floats stay floats" "[3.0,16.35]"
    (Json.to_string (J.List [ J.Float 3.0; J.Float 16.35 ]));
  Alcotest.(check string) "non-finite is null" "null" (Json.to_string (J.Float Float.nan))

let () =
  Alcotest.run "perf"
    [
      ( "reduce",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "verdict" `Quick test_verdict;
        ] );
      ("json", [ Alcotest.test_case "round-trip" `Quick test_json ]);
    ]
