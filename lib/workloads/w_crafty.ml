(** 186.crafty analogue: bitboard move scanning.

    Chess engines spin on "extract lowest set bit" loops whose trip counts
    equal the population count of data-dependent masks, then evaluate each
    square with branchy table lookups. Mask density (input-controlled)
    sets both the loop trip distribution and branch predictability. *)

open Wish_compiler

let board_base = 1_000
let board_len = 4096
let attack_base = 8_192
let attack_len = 4096
let out_addr = 500

let iters scale = 1_400 * scale

let board_mask = board_len - 1
let attack_mask = attack_len - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs = [];
    main =
      [
        "acc" <-- i 0;
        "material" <-- i 0;
        Ast.For
          ( "i",
            i 0,
            i (iters scale),
            [
              "bits" <-- mem (i board_base + (v "i" &&& i board_mask));
              (* Lowest-set-bit extraction loop: trips = popcount(bits). *)
              Ast.While
                ( v "bits" <> i 0,
                  [
                    "b" <-- (v "bits" &&& (i 0 - v "bits"));
                    "bits" <-- (v "bits" - v "b");
                    "h" <-- ((v "b" * i 0x61C88647) >> i 16);
                    "acc" <-- (v "acc" + mem (i attack_base + (v "h" &&& i attack_mask)));
                  ] );
              (* Square evaluation: nested data-dependent conditionals. *)
              "sq" <-- (v "acc" &&& i attack_mask);
              "a" <-- mem (i attack_base + v "sq");
              Ast.If
                ( (v "a" &&& i 3) = i 0,
                  [
                    Ast.If
                      ( v "a" > i 2048,
                        [
                          "material" <-- (v "material" + (v "a" >> i 6));
                          "acc" <-- (v "acc" ^^ v "material");
                          "acc" <-- (v "acc" &&& i 0xFFFFFF);
                        ],
                        [
                          "material" <-- (v "material" - i 3);
                          "acc" <-- (v "acc" + (v "a" &&& i 63));
                          "acc" <-- (v "acc" &&& i 0xFFFFFF);
                        ] );
                    "acc" <-- (v "acc" + i 5);
                    "material" <-- (v "material" &&& i 0xFFFF);
                  ],
                  [
                    "acc" <-- (v "acc" + (v "a" &&& i 15));
                    "material" <-- (v "material" + i 1);
                    "acc" <-- ((v "acc" << i 1) &&& i 0xFFFFFF);
                    "acc" <-- (v "acc" + (v "material" &&& i 7));
                    "acc" <-- (v "acc" ^^ (v "a" >> i 8));
                  ] );
              Ast.Store (i out_addr, v "acc");
            ] );
      ];
  }

(* Mask density: A = dense random 16-bit masks (trips ~8, erratic);
   B = sparse masks (trips 1-3, tamer); C = bimodal. *)
let masks ~seed ~kind =
  Bench.gen ~seed board_len (fun r _ ->
      match kind with
      | `Dense -> Wish_util.Rng.bits r land 0xFFF
      | `Sparse -> 1 lsl Wish_util.Rng.int r 16 lor (1 lsl Wish_util.Rng.int r 16)
      | `Bimodal ->
        if Wish_util.Rng.chance r ~percent:50 then Wish_util.Rng.bits r land 0xFFF
        else 1 lsl Wish_util.Rng.int r 12)

let attacks seed = Bench.gen ~seed attack_len (fun r _ -> Wish_util.Rng.int r 4096)

let input ~seed kind =
  [
    Bench.array_at board_base (masks ~seed ~kind);
    Bench.array_at attack_base (attacks (seed + 7));
  ]

let bench ~scale =
  {
    Bench.name = "crafty";
    description = "bitboard scanning: popcount-trip loops and nested table-driven conditionals";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = input ~seed:51 `Dense };
        { Bench.label = "B"; data = input ~seed:52 `Sparse };
        { Bench.label = "C"; data = input ~seed:53 `Bimodal };
      ];
    profile_input = "B";
    mem_words = 1 lsl 16;
    approx_dyn_insts = 140_000 * scale;
  }
