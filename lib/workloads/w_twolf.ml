(** 300.twolf analogue: standard-cell placement cost evaluation.

    twolf evaluates wire-length deltas with cascades of coordinate
    comparisons — several moderately unpredictable hammocks per move (6.8
    mispredicts/1K µops in Table 4), which is where wish jumps shine
    (Figure 10: >10% over predicated code). Coordinate spreads per input
    set the branch entropy. *)

open Wish_compiler

let xa_base = 1_000
let ya_base = 6_000
let xb_base = 11_000
let yb_base = 16_000
let cells = 4096
let bin_base = 21_000
let out_addr = 500

let iters scale = 1_800 * scale

let cell_mask = cells - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs = [];
    main =
      [
        "cost" <-- i 0;
        "pen" <-- i 0;
        Ast.For
          ( "m",
            i 0,
            i (iters scale),
            [
              "k" <-- (v "m" &&& i cell_mask);
              "dx" <-- (mem (i xa_base + v "k") - mem (i xb_base + v "k"));
              "dy" <-- (mem (i ya_base + v "k") - mem (i yb_base + v "k"));
              (* |dx| with side effects on the horizontal penalty. *)
              Ast.If
                ( v "dx" < i 0,
                  [
                    "dx" <-- (i 0 - v "dx");
                    "pen" <-- (v "pen" + i 2);
                    "cost" <-- (v "cost" + (v "dx" &&& i 63));
                    "cost" <-- (v "cost" &&& i 0xFFFFFF);
                    "pen" <-- (v "pen" &&& i 0xFFFF);
                  ],
                  [
                    "pen" <-- (v "pen" + i 1);
                    "cost" <-- (v "cost" + (v "dx" >> i 2));
                    "cost" <-- (v "cost" &&& i 0xFFFFFF);
                    "pen" <-- (v "pen" ^^ (v "dx" &&& i 15));
                    "pen" <-- (v "pen" &&& i 0xFFFF);
                  ] );
              (* |dy|, same shape. *)
              Ast.If
                ( v "dy" < i 0,
                  [
                    "dy" <-- (i 0 - v "dy");
                    "pen" <-- (v "pen" + i 3);
                    "cost" <-- (v "cost" + (v "dy" &&& i 63));
                    "cost" <-- (v "cost" &&& i 0xFFFFFF);
                    "pen" <-- (v "pen" &&& i 0xFFFF);
                  ],
                  [
                    "pen" <-- (v "pen" + i 1);
                    "cost" <-- (v "cost" + (v "dy" >> i 2));
                    "cost" <-- (v "cost" &&& i 0xFFFFFF);
                    "pen" <-- (v "pen" ^^ (v "dy" &&& i 15));
                    "pen" <-- (v "pen" &&& i 0xFFFF);
                  ] );
              (* Feasibility test on the Manhattan distance. *)
              Ast.If
                ( (v "dx" + v "dy") > i 96,
                  [
                    "cost" <-- (v "cost" + i 32);
                    "b" <-- ((v "dx" + v "dy") &&& i 255);
                    Ast.Store (i bin_base + v "b", mem (i bin_base + v "b") + i 1);
                    "cost" <-- (v "cost" ^^ v "b");
                    "cost" <-- (v "cost" &&& i 0xFFFFFF);
                  ],
                  [
                    "cost" <-- (v "cost" + v "dx");
                    "cost" <-- (v "cost" + v "dy");
                    "cost" <-- (v "cost" &&& i 0xFFFFFF);
                    "pen" <-- (v "pen" + (v "cost" &&& i 3));
                    "pen" <-- (v "pen" &&& i 0xFFFF);
                  ] );
              Ast.Store (i out_addr, v "cost");
            ] );
        Ast.Store (i out_addr + i 1, v "pen");
      ];
  }

(* [bias] shifts the B-cell coordinates: bias 0 makes the sign branches
   coin flips; a large bias makes them strongly one-sided. [spread] also
   moves the Manhattan feasibility branch's rate. *)
let build_input ~seed ~spread ~bias =
  let coords seed' lo hi =
    Bench.gen ~seed:seed' cells (fun r _ -> lo + Wish_util.Rng.int r (hi - lo))
  in
  [
    Bench.array_at xa_base (coords seed bias (bias + spread));
    Bench.array_at xb_base (coords (seed + 1) 0 spread);
    Bench.array_at ya_base (coords (seed + 2) bias (bias + spread));
    Bench.array_at yb_base (coords (seed + 3) 0 spread);
  ]

let bench ~scale =
  {
    Bench.name = "twolf";
    description = "placement cost: cascaded coordinate-sign hammocks";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = build_input ~seed:95 ~spread:128 ~bias:0 };
        { Bench.label = "B"; data = build_input ~seed:96 ~spread:64 ~bias:48 };
        { Bench.label = "C"; data = build_input ~seed:97 ~spread:200 ~bias:60 };
      ];
    profile_input = "B";
    mem_words = 1 lsl 16;
    approx_dyn_insts = 85_000 * scale;
  }
