(* Unit and property tests for the utility kit. *)

open Wish_util

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest ~speed_level:`Quick t

(* Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seed_matters () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let sa = List.init 16 (fun _ -> Rng.bits a) and sb = List.init 16 (fun _ -> Rng.bits b) in
  Alcotest.(check bool) "different streams" false (sa = sb)

let test_rng_zero_seed () =
  (* Seed 0 must not produce the all-zero xorshift fixed point. *)
  let r = Rng.create 0 in
  Alcotest.(check bool) "nonzero output" true (List.init 8 (fun _ -> Rng.bits r) <> List.init 8 (fun _ -> 0))

let prop_rng_int_range =
  QCheck.Test.make ~name:"Rng.int in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let r = Rng.create seed in
      let v = Rng.int r n in
      v >= 0 && v < n)

let prop_rng_range =
  QCheck.Test.make ~name:"Rng.range inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, extra) ->
      let hi = lo + extra in
      let r = Rng.create seed in
      let v = Rng.range r lo hi in
      v >= lo && v <= hi)

let test_rng_geometric_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 200 do
    let v = Rng.geometric r ~stop_percent:30 ~max:7 in
    Alcotest.(check bool) "1..max" true (v >= 1 && v <= 7)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 100 (fun i -> i)) sorted

(* A draw reads and writes the generator's state unboxed, so drawing
   allocates nothing: 10^5 draws cost no minor words beyond what reading
   the counter itself costs. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 7 in
  let counter_cost =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    sum := !sum + Rng.int r 1000
  done;
  let words = Gc.minor_words () -. before -. counter_cost in
  Alcotest.(check bool) "draws were made" true (!sum > 0);
  check (Alcotest.float 0.) "minor words over 10^5 draws" 0. words

let test_rng_chance_extremes () =
  let r = Rng.create 3 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "0% never" false (Rng.chance r ~percent:0);
    Alcotest.(check bool) "100% always" true (Rng.chance r ~percent:100)
  done

(* Ring --------------------------------------------------------------- *)

let test_ring_fifo_order () =
  let r = Ring.create 4 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  check Alcotest.(option int) "peek oldest" (Some 1) (Ring.peek r);
  check Alcotest.(option int) "pop oldest" (Some 1) (Ring.pop r);
  Ring.push r 4;
  Ring.push r 5;
  check Alcotest.(list int) "order preserved" [ 2; 3; 4; 5 ] (Ring.to_list r)

let test_ring_full_and_space () =
  let r = Ring.create 2 in
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check bool) "full" true (Ring.is_full r);
  check Alcotest.int "no space" 0 (Ring.space r);
  Alcotest.check_raises "push full" (Failure "Ring.push: full") (fun () -> Ring.push r 3)

let test_ring_drop_from () =
  let r = Ring.create 8 in
  List.iter (Ring.push r) [ 10; 11; 12; 13; 14 ];
  let dropped = Ring.drop_from r 2 in
  check Alcotest.(list int) "dropped oldest-first" [ 12; 13; 14 ] dropped;
  check Alcotest.(list int) "kept prefix" [ 10; 11 ] (Ring.to_list r);
  Ring.push r 15;
  check Alcotest.(list int) "reusable after drop" [ 10; 11; 15 ] (Ring.to_list r)

let test_ring_wraparound () =
  let r = Ring.create 3 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  ignore (Ring.pop r);
  ignore (Ring.pop r);
  Ring.push r 4;
  Ring.push r 5;
  check Alcotest.(list int) "wrapped contents" [ 3; 4; 5 ] (Ring.to_list r);
  check Alcotest.int "get indexes from oldest" 4 (Ring.get r 1)

let test_ring_find_index () =
  let r = Ring.create 4 in
  List.iter (Ring.push r) [ 7; 8; 9 ];
  check Alcotest.(option int) "found" (Some 1) (Ring.find_index r (fun x -> x = 8));
  check Alcotest.(option int) "missing" None (Ring.find_index r (fun x -> x = 99))

let prop_ring_model =
  (* Ring behaves like a bounded FIFO queue. *)
  QCheck.Test.make ~name:"Ring model check" ~count:200
    QCheck.(list (option small_nat))
    (fun ops ->
      let r = Ring.create 8 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
            if Ring.is_full r then true
            else begin
              Ring.push r x;
              model := !model @ [ x ];
              Ring.to_list r = !model
            end
          | None -> (
            match (Ring.pop r, !model) with
            | None, [] -> true
            | Some v, m :: rest ->
              model := rest;
              v = m
            | _ -> false))
        ops)

(* Heap --------------------------------------------------------------- *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"Heap pops in ascending order" ~count:300
    QCheck.(list small_nat)
    (fun xs ->
      let h = Heap.create () in
      List.iter (Heap.push h) xs;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some v -> drain (v :: acc) in
      drain [] = List.sort compare xs)

let test_heap_interleaved () =
  let h = Heap.create () in
  List.iter (Heap.push h) [ 5; 1; 3 ];
  check Alcotest.(option int) "min" (Some 1) (Heap.pop h);
  Heap.push h 0;
  check Alcotest.(option int) "new min" (Some 0) (Heap.pop h);
  check Alcotest.(option int) "then 3" (Some 3) (Heap.pop h);
  check Alcotest.(option int) "then 5" (Some 5) (Heap.pop h);
  check Alcotest.(option int) "empty" None (Heap.pop h)

(* Lru ---------------------------------------------------------------- *)

let test_lru_hit_and_miss () =
  let l = Lru.create ~sets:2 ~ways:2 ~default:(fun () -> 0) in
  Alcotest.(check bool) "cold miss" false (Lru.hit l ~set:0 ~tag:1);
  check Alcotest.int "miss reads the default" (-1) (Lru.find_default l ~set:0 ~tag:1 ~default:(-1));
  Lru.insert_quiet l ~set:0 ~tag:1 42;
  Alcotest.(check bool) "hit" true (Lru.hit l ~set:0 ~tag:1);
  check Alcotest.int "payload" 42 (Lru.find_default l ~set:0 ~tag:1 ~default:(-1))

let test_lru_eviction_order () =
  let l = Lru.create ~sets:1 ~ways:2 ~default:(fun () -> 0) in
  Lru.insert_quiet l ~set:0 ~tag:1 1;
  Lru.insert_quiet l ~set:0 ~tag:2 2;
  (* Touch tag 1 so tag 2 becomes LRU. *)
  ignore (Lru.hit l ~set:0 ~tag:1);
  Lru.insert_quiet l ~set:0 ~tag:3 3;
  Alcotest.(check bool) "evicts LRU (tag 2)" false (Lru.mem l ~set:0 ~tag:2);
  check Alcotest.int "tag 1 kept" 1 (Lru.find_default l ~set:0 ~tag:1 ~default:(-1));
  Alcotest.(check bool) "tag 3 filled" true (Lru.mem l ~set:0 ~tag:3)

let test_lru_update () =
  let l = Lru.create ~sets:1 ~ways:2 ~default:(fun () -> 0) in
  Alcotest.(check bool) "update miss" false (Lru.update l ~set:0 ~tag:7 ~f:(fun v -> v + 1));
  Lru.insert_quiet l ~set:0 ~tag:7 10;
  Alcotest.(check bool) "update hit" true (Lru.update l ~set:0 ~tag:7 ~f:(fun v -> v + 1));
  check Alcotest.int "updated" 11 (Lru.find_default l ~set:0 ~tag:7 ~default:(-1))

let test_lru_insert_same_tag_replaces () =
  let l = Lru.create ~sets:1 ~ways:2 ~default:(fun () -> 0) in
  Lru.insert_quiet l ~set:0 ~tag:5 1;
  Lru.insert_quiet l ~set:0 ~tag:5 2;
  check Alcotest.int "replaced" 2 (Lru.find_default l ~set:0 ~tag:5 ~default:(-1));
  (* The second way is still free: a new tag fills it without evicting 5. *)
  Lru.insert_quiet l ~set:0 ~tag:6 6;
  Alcotest.(check bool) "no eviction" true (Lru.mem l ~set:0 ~tag:5 && Lru.mem l ~set:0 ~tag:6)

let test_lru_clear () =
  let l = Lru.create ~sets:2 ~ways:2 ~default:(fun () -> 0) in
  Lru.insert_quiet l ~set:0 ~tag:1 1;
  Lru.insert_quiet l ~set:1 ~tag:2 2;
  Lru.clear l;
  Alcotest.(check bool) "set 0 cleared" false (Lru.mem l ~set:0 ~tag:1);
  Alcotest.(check bool) "set 1 cleared" false (Lru.mem l ~set:1 ~tag:2);
  Lru.insert_quiet l ~set:0 ~tag:3 3;
  check Alcotest.int "usable after clear" 3 (Lru.find_default l ~set:0 ~tag:3 ~default:(-1))

(* Table -------------------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t =
    Table.create ~title:"t" ~header:[ "name"; "value" ] ~aligns:[ Table.Left; Table.Right ]
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "longer"; "2.5" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (contains s "== t ==");
  Alcotest.(check bool) "has row cell" true (contains s "longer");
  Alcotest.(check bool) "right-aligned value" true (contains s "  2.5 |")

let test_table_csv () =
  let t = Table.create ~title:"t" ~header:[ "a"; "b" ] ~aligns:[ Table.Left; Table.Right ] in
  Table.add_row t [ "x,y"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "plain"; "2" ];
  check Alcotest.string "csv with quoting" "a,b\n\"x,y\",1\nplain,2\n" (Table.to_csv t)

let test_table_formatters () =
  check Alcotest.string "float" "1.250" (Table.fmt_float 1.25);
  check Alcotest.string "percent" "12.5%" (Table.fmt_percent 12.5)

(* Perf_json ---------------------------------------------------------- *)

(* The writer lives in bench/perf (its test_perf checks writer -> parser);
   here a record in that writer's style parses to the value it denotes:
   escapes, a negative int, a float, null, a bool and a nested list. *)
let test_perf_json_roundtrip () =
  let v =
    Perf_json.Obj
      [
        ("scale", Perf_json.Int 2);
        ("pi", Perf_json.Float 3.5);
        ("name", Perf_json.String "a \"quoted\" \\ name\n");
        ("rss", Perf_json.Null);
        ("ok", Perf_json.Bool true);
        ("xs", Perf_json.List [ Perf_json.Int 1; Perf_json.Int (-2) ]);
      ]
  in
  let s =
    {|{"scale":2,"pi":3.5,"name":"a \"quoted\" \\ name\n","rss":null,"ok":true,"xs":[1,-2]}|}
  in
  match Perf_json.parse s with
  | Ok v' -> Alcotest.(check bool) "parses to the value" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

(* [parse] is total: every malformed input must come back as [Error]
   with a diagnostic, never an exception — bench/perf reads ledger
   records that may be torn or hand-edited. *)
let test_perf_json_malformed () =
  let cases =
    [
      ("empty", "");
      ("truncated object", "{\"a\": 1");
      ("truncated string", "{\"a\": \"unterminated");
      ("trailing garbage", "{\"a\": 1} extra");
      ("bare word", "nul");
      ("bad escape", "\"a\\q\"");
      ("bad unicode escape", "\"\\u12xz\"");
      ("short unicode escape", "\"\\u12");
      ("missing colon", "{\"a\" 1}");
      ("missing comma", "[1 2]");
      ("lone minus", "-");
      ("bad exponent", "1e");
      ("control char in string", "\"a\nb\"");
    ]
  in
  List.iter
    (fun (label, s) ->
      match Perf_json.parse s with
      | Error msg -> Alcotest.(check bool) (label ^ " has message") true (String.length msg > 0)
      | Ok _ -> Alcotest.failf "%s: parsed successfully" label)
    cases

let test_perf_json_deep_nesting () =
  (* Hostile nesting must yield [Error], not a stack overflow. *)
  let n = 1_000_000 in
  let s = String.concat "" [ String.make n '['; "1"; String.make n ']' ] in
  match Perf_json.parse s with
  | Error msg -> Alcotest.(check bool) "diagnosed" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "hostile nesting parsed"

let test_perf_json_members () =
  match Perf_json.parse "{\"cases\": {\"gzip\": {\"ns\": 12.5}}}" with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
    let ns =
      Option.bind (Perf_json.member "cases" v) (fun c ->
          Option.bind (Perf_json.member "gzip" c) (fun g ->
              Option.bind (Perf_json.member "ns" g) Perf_json.to_float_opt))
    in
    Alcotest.(check (option (float 1e-9))) "nested member" (Some 12.5) ns;
    Alcotest.(check bool) "missing member" true (Perf_json.member "nope" v = None);
    Alcotest.(check bool) "member on non-object" true (Perf_json.member "x" (Perf_json.Int 1) = None)

let () =
  Alcotest.run "wish_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed matters" `Quick test_rng_seed_matters;
          Alcotest.test_case "zero seed" `Quick test_rng_zero_seed;
          Alcotest.test_case "geometric bounds" `Quick test_rng_geometric_bounds;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
          qtest prop_rng_int_range;
          qtest prop_rng_range;
        ] );
      ( "ring",
        [
          Alcotest.test_case "fifo order" `Quick test_ring_fifo_order;
          Alcotest.test_case "full/space" `Quick test_ring_full_and_space;
          Alcotest.test_case "drop_from" `Quick test_ring_drop_from;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "find_index" `Quick test_ring_find_index;
          qtest prop_ring_model;
        ] );
      ("heap", [ Alcotest.test_case "interleaved" `Quick test_heap_interleaved; qtest prop_heap_sorts ]);
      ( "lru",
        [
          Alcotest.test_case "hit and miss" `Quick test_lru_hit_and_miss;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "update" `Quick test_lru_update;
          Alcotest.test_case "same tag replaces" `Quick test_lru_insert_same_tag_replaces;
          Alcotest.test_case "clear" `Quick test_lru_clear;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "formatters" `Quick test_table_formatters;
        ] );
      ( "perf_json",
        [
          Alcotest.test_case "round-trip" `Quick test_perf_json_roundtrip;
          Alcotest.test_case "malformed is Error" `Quick test_perf_json_malformed;
          Alcotest.test_case "hostile nesting" `Quick test_perf_json_deep_nesting;
          Alcotest.test_case "member access" `Quick test_perf_json_members;
        ] );
    ]
