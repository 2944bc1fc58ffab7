(** 181.mcf analogue: cache-missing arc scans.

    mcf is the paper's predication horror story (Figure 10: BASE-MAX is
    2.02x slower; Figure 1: predication helps or hurts depending on input):
    its hot branches are almost always correctly predicted, but when
    if-converted, critical loads become guarded by predicates produced from
    other cache-missing loads. Under branch prediction the two misses of an
    iteration are independent and overlap; under predication the second
    waits for the first (plus compare), serializing memory latency.

    Kernel shape per iteration:
      c = cost[perm[i]]              (miss: working set > L2)
      if (c > pivot) acc += tree[f(perm[i])]   (miss, address independent of c)
      else           cheap arithmetic
    The branch is strongly biased (predictable); bias varies per input. *)

open Wish_compiler

let idx_base = 1_024
let idx_len = 8192
let cost_base = 16_384
let big_len = 1 lsl 18 (* 256K words = 2MB per array; 4MB total, 4x the L2 *)
let tree_base = cost_base + big_len
let out_addr = 500

let iters scale = 1_500 * scale

let idx_mask = idx_len - 1
let big_mask = big_len - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs = [];
    main =
      [
        "acc" <-- i 0;
        "basis" <-- i 0;
        Ast.For
          ( "it",
            i 0,
            i (iters scale),
            [
              "idx" <-- mem (i idx_base + (v "it" &&& i idx_mask));
              "c" <-- mem (i cost_base + v "idx");
              Ast.If
                ( v "c" > i 100,
                  [
                    (* Common arm: a second, independent-address miss. *)
                    "acc" <-- (v "acc" + mem (i tree_base + ((v "idx" * i 7) &&& i big_mask)));
                    "basis" <-- (v "basis" + i 1);
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                    "acc" <-- (v "acc" + (v "c" >> i 4));
                    "acc" <-- (v "acc" ^^ v "basis");
                  ],
                  [
                    (* Rare arm: price update without dereference. *)
                    "acc" <-- (v "acc" + i 7);
                    "basis" <-- (v "basis" - i 1);
                    "acc" <-- (v "acc" ^^ v "c");
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                    "acc" <-- (v "acc" + (v "basis" &&& i 15));
                  ] );
            ] );
        Ast.Store (i out_addr, v "acc");
        Ast.Store (i out_addr + i 1, v "basis");
      ];
  }

(* [bias] = per-mille of iterations whose cost exceeds the pivot. mcf's hot
   branches are almost always correctly predicted (paper Section 5.1), so
   the interesting inputs sit at 99+%. *)
let build_input ~seed ~bias =
  let rng = Wish_util.Rng.create seed in
  (* The draw order (tree, then cost, then idx) fixes the inputs'
     values. *)
  let tree = Array.init big_len (fun _ -> Wish_util.Rng.int rng 4096) in
  let cost =
    Array.init big_len (fun _ ->
        if Wish_util.Rng.int rng 1000 < bias then 101 + Wish_util.Rng.int rng 900
        else Wish_util.Rng.int rng 100)
  in
  let idx = Array.init idx_len (fun _ -> Wish_util.Rng.int rng big_len) in
  [ Bench.array_at idx_base idx; Bench.array_at cost_base cost; Bench.array_at tree_base tree ]

let bench ~scale =
  {
    Bench.name = "mcf";
    description =
      "arc scans over a >L2 working set; predication serializes independent misses";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = build_input ~seed:41 ~bias:997 };
        { Bench.label = "B"; data = build_input ~seed:42 ~bias:999 };
        { Bench.label = "C"; data = build_input ~seed:43 ~bias:993 };
      ];
    profile_input = "B";
    mem_words = 1 lsl 20;
    approx_dyn_insts = 35_000 * scale;
  }
