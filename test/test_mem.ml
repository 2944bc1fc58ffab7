(* Tests for the cache and memory-hierarchy timing models. *)

open Wish_mem

let check = Alcotest.check

let small_cache () =
  Cache.create { Cache.size_bytes = 512; ways = 2; line_bytes = 64; latency = 2 }
(* 8 lines total, 4 sets x 2 ways. *)

let test_cache_cold_then_hit () =
  let c = small_cache () in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~byte_addr:0);
  Alcotest.(check bool) "then hit" true (Cache.access c ~byte_addr:0);
  Alcotest.(check bool) "same line hits" true (Cache.access c ~byte_addr:63);
  Alcotest.(check bool) "next line misses" false (Cache.access c ~byte_addr:64)

let test_cache_lru_within_set () =
  let c = small_cache () in
  (* Lines mapping to set 0: line addresses 0, 4, 8 (4 sets). *)
  let addr line = line * 64 in
  ignore (Cache.access c ~byte_addr:(addr 0));
  ignore (Cache.access c ~byte_addr:(addr 4));
  ignore (Cache.access c ~byte_addr:(addr 0)); (* refresh line 0 *)
  ignore (Cache.access c ~byte_addr:(addr 8)); (* evicts line 4 *)
  Alcotest.(check bool) "line 0 survived" true (Cache.probe c ~byte_addr:(addr 0));
  Alcotest.(check bool) "line 4 evicted" false (Cache.probe c ~byte_addr:(addr 4));
  Alcotest.(check bool) "line 8 present" true (Cache.probe c ~byte_addr:(addr 8))

let test_cache_counters () =
  let c = small_cache () in
  ignore (Cache.access c ~byte_addr:0);
  ignore (Cache.access c ~byte_addr:0);
  ignore (Cache.access c ~byte_addr:128);
  check Alcotest.int "accesses" 3 (Cache.accesses c);
  check Alcotest.int "misses" 2 (Cache.misses c);
  check (Alcotest.float 1e-9) "miss rate" (2.0 /. 3.0) (Cache.miss_rate c)

let test_cache_probe_no_side_effect () =
  let c = small_cache () in
  Alcotest.(check bool) "probe miss" false (Cache.probe c ~byte_addr:0);
  check Alcotest.int "no access counted" 0 (Cache.accesses c);
  Alcotest.(check bool) "still cold" false (Cache.access c ~byte_addr:0)

(* Hierarchy ------------------------------------------------------------- *)

let cfg = Hierarchy.default_config

let test_hierarchy_data_latencies () =
  let h = Hierarchy.create cfg in
  let first = Hierarchy.access_data h ~now:0 ~byte_addr:0 in
  Alcotest.(check bool) "cold miss goes to memory"
    true
    (first >= cfg.Hierarchy.memory_latency + cfg.l1d.latency + cfg.l2.latency);
  let second = Hierarchy.access_data h ~now:1000 ~byte_addr:8 in
  check Alcotest.int "L1 hit" cfg.l1d.latency second

let test_hierarchy_l2_hit () =
  let h = Hierarchy.create cfg in
  ignore (Hierarchy.access_data h ~now:0 ~byte_addr:0);
  (* Evict line 0 from L1 (4-way, 256 sets at 64B lines -> addresses
     16KiB apart share a set). *)
  for k = 1 to 8 do
    ignore (Hierarchy.access_data h ~now:0 ~byte_addr:(k * 16384))
  done;
  let lat = Hierarchy.access_data h ~now:1000 ~byte_addr:0 in
  check Alcotest.int "L1 miss, L2 hit" (cfg.l1d.latency + cfg.l2.latency) lat

let test_hierarchy_inst_path () =
  let h = Hierarchy.create cfg in
  let cold = Hierarchy.access_inst h ~now:0 ~byte_addr:0 in
  Alcotest.(check bool) "cold fetch stalls" true (cold >= cfg.Hierarchy.memory_latency);
  check Alcotest.int "warm fetch free" 0 (Hierarchy.access_inst h ~now:10 ~byte_addr:0)

let test_bank_contention () =
  let h = Hierarchy.create cfg in
  (* Two misses to the same bank back to back: the second waits. *)
  let a1 = Hierarchy.access_data h ~now:0 ~byte_addr:0 in
  let a2 = Hierarchy.access_data h ~now:0 ~byte_addr:(cfg.Hierarchy.memory_banks * 64) in
  Alcotest.(check bool) "second delayed by bank busy" true (a2 > a1)

let test_stats_accumulate () =
  let h = Hierarchy.create cfg in
  ignore (Hierarchy.access_data h ~now:0 ~byte_addr:0);
  ignore (Hierarchy.access_data h ~now:0 ~byte_addr:8);
  let s = Hierarchy.stats h in
  check Alcotest.int "l1d accesses" 2 s.Hierarchy.l1d_accesses;
  check Alcotest.int "l1d misses" 1 s.l1d_misses;
  check Alcotest.int "l2 misses" 1 s.l2_misses

(* Functional warming drives the caches through [warm_inst]/[warm_data]
   instead of the timed accessors: one mixed stream through each must
   leave the same counters and the same resident lines (bank timing is
   the one thing the warm accessors leave out). Small caches so the
   stream evicts at every level. *)
let test_warm_accessors_match_timed () =
  let small size ways = { Cache.size_bytes = size; ways; line_bytes = 64; latency = 2 } in
  let cfg = { cfg with Hierarchy.l1i = small 512 2; l1d = small 512 2; l2 = small 2048 2 } in
  let warm = Hierarchy.create cfg and timed = Hierarchy.create cfg in
  let rng = Wish_util.Rng.create 7 in
  let lines = 96 in
  for now = 0 to 3999 do
    let byte_addr = (Wish_util.Rng.int rng (lines * 64)) land lnot 7 in
    if Wish_util.Rng.bool rng then begin
      Hierarchy.warm_inst warm ~byte_addr;
      ignore (Hierarchy.access_inst timed ~now ~byte_addr)
    end
    else begin
      Hierarchy.warm_data warm ~byte_addr;
      ignore (Hierarchy.access_data timed ~now ~byte_addr)
    end
  done;
  let s = Hierarchy.stats warm in
  Alcotest.(check bool) "the stream hits and misses at every level" true
    (s.l1i_misses > 0 && s.l1i_misses < s.l1i_accesses && s.l1d_misses > 0
   && s.l1d_misses < s.l1d_accesses && s.l2_misses > 0 && s.l2_misses < s.l2_accesses);
  Alcotest.(check bool) "same counters" true (s = Hierarchy.stats timed);
  for line = 0 to lines - 1 do
    let byte_addr = line * 64 in
    Alcotest.(check bool)
      (Printf.sprintf "line %d: same residency" line)
      true
      (Hierarchy.resident warm ~byte_addr = Hierarchy.resident timed ~byte_addr)
  done

let () =
  Alcotest.run "wish_mem"
    [
      ( "cache",
        [
          Alcotest.test_case "cold then hit" `Quick test_cache_cold_then_hit;
          Alcotest.test_case "lru within set" `Quick test_cache_lru_within_set;
          Alcotest.test_case "counters" `Quick test_cache_counters;
          Alcotest.test_case "probe side-effect free" `Quick test_cache_probe_no_side_effect;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "data latencies" `Quick test_hierarchy_data_latencies;
          Alcotest.test_case "l2 hit" `Quick test_hierarchy_l2_hit;
          Alcotest.test_case "inst path" `Quick test_hierarchy_inst_path;
          Alcotest.test_case "bank contention" `Quick test_bank_contention;
          Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "warm accessors match timed" `Quick test_warm_accessors_match_timed;
        ] );
    ]
