(* The domain worker pool: deterministic ordering, exception isolation,
   serial degeneration, and reusability after failures. *)

module Pool = Wish_util.Pool

let check = Alcotest.check

let with_pool ~size f =
  let p = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_results_in_submission_order () =
  with_pool ~size:4 (fun p ->
      let xs = List.init 100 Fun.id in
      (* Jobs finish out of order (larger inputs sleep less); results must
         still come back in submission order. *)
      let f x =
        Unix.sleepf (0.0005 *. float_of_int ((x * 7) mod 13));
        x * x
      in
      check Alcotest.(list int) "ordered" (List.map (fun x -> x * x) xs) (Pool.map p f xs))

let test_pool_of_one_is_serial () =
  with_pool ~size:1 (fun p ->
      check Alcotest.int "no domains needed" 1 (Pool.size p);
      let xs = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
      let f x = (2 * x) + 1 in
      check Alcotest.(list int) "equals List.map" (List.map f xs) (Pool.map p f xs))

exception Boom of int

let test_exception_does_not_wedge () =
  with_pool ~size:3 (fun p ->
      (* One failing job: the first exception (in submission order) is
         re-raised once every job has run. *)
      let raised =
        try
          ignore (Pool.map p (fun x -> if x = 5 then raise (Boom x) else x) (List.init 10 Fun.id));
          None
        with Boom x -> Some x
      in
      check Alcotest.(option int) "exception surfaced" (Some 5) raised;
      (* The pool survives and the next batch runs normally. *)
      check
        Alcotest.(list int)
        "pool still works"
        [ 0; 2; 4; 6 ]
        (Pool.map p (fun x -> 2 * x) [ 0; 1; 2; 3 ]))

let test_first_exception_wins () =
  with_pool ~size:4 (fun p ->
      let raised =
        try
          ignore (Pool.map p (fun x -> if x >= 7 then raise (Boom x) else x) (List.init 20 Fun.id));
          None
        with Boom x -> Some x
      in
      check Alcotest.(option int) "submission-order exception" (Some 7) raised)

let test_empty_and_reuse () =
  with_pool ~size:2 (fun p ->
      check Alcotest.(list int) "empty input" [] (Pool.map p (fun x -> x) []);
      (* Several consecutive batches through the same workers. *)
      for i = 1 to 5 do
        check Alcotest.int "batch sum"
          ((5 * i) + 10)
          (List.fold_left ( + ) 0 (Pool.map p (fun x -> x) (List.init 5 (fun k -> i + k))))
      done)

let test_map_after_shutdown_degrades () =
  let p = Pool.create ~size:4 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  check Alcotest.(list int) "serial fallback" [ 1; 4; 9 ] (Pool.map p (fun x -> x * x) [ 1; 2; 3 ])

(* [--jobs auto] gives every hardware thread a worker: the coordinating
   domain sleeps in [map] while they run. *)
let test_jobs_of_string () =
  let jobs = Alcotest.(result int string) in
  check jobs "auto" (Ok (Domain.recommended_domain_count ())) (Pool.jobs_of_string "auto");
  check jobs "an integer" (Ok 3) (Pool.jobs_of_string "3");
  check jobs "clamped to 1" (Ok 1) (Pool.jobs_of_string "0");
  check Alcotest.bool "anything else" true (Result.is_error (Pool.jobs_of_string "many"))

let () =
  Alcotest.run "wish_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "submission order" `Quick test_results_in_submission_order;
          Alcotest.test_case "size 1 = serial" `Quick test_pool_of_one_is_serial;
          Alcotest.test_case "exceptions don't wedge" `Quick test_exception_does_not_wedge;
          Alcotest.test_case "first exception wins" `Quick test_first_exception_wins;
          Alcotest.test_case "empty + reuse" `Quick test_empty_and_reuse;
          Alcotest.test_case "shutdown degrades to serial" `Quick test_map_after_shutdown_degrades;
          Alcotest.test_case "jobs auto" `Quick test_jobs_of_string;
        ] );
    ]
