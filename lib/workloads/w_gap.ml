(** 254.gap analogue: computer-algebra vector arithmetic.

    gap's branches are overwhelmingly predictable (1.0 mispredict per 1K
    µops in Table 4): overflow/normalization checks that almost never fire,
    plus regular fixed-trip inner loops. Wish branches should neither help
    nor hurt much here; predication overhead is what shows. *)

open Wish_compiler

let a_base = 1_000
let b_base = 10_000
let c_base = 20_000
let len = 8192
let out_addr = 500

let iters scale = 2_000 * scale

let len_mask = len - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs = [];
    main =
      [
        "acc" <-- i 0;
        "carry" <-- i 0;
        Ast.For
          ( "i",
            i 0,
            i (iters scale),
            [
              "x" <-- mem (i a_base + (v "i" &&& i len_mask));
              "y" <-- mem (i b_base + (v "i" &&& i len_mask));
              "s" <-- ((v "x" * v "y") + v "carry");
              (* Overflow normalization: fires ~2% of the time. *)
              Ast.If
                ( v "s" > i 16_000_000,
                  [
                    "carry" <-- (v "s" >> i 24);
                    "s" <-- (v "s" &&& i 0xFFFFFF);
                    "acc" <-- (v "acc" + i 1);
                    "acc" <-- (v "acc" ^^ v "carry");
                    "s" <-- (v "s" + (v "carry" &&& i 7));
                  ],
                  [
                    "carry" <-- i 0;
                    "acc" <-- (v "acc" + (v "s" >> i 12));
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                    "s" <-- (v "s" &&& i 0xFFFFFF);
                    "acc" <-- (v "acc" + i 2);
                  ] );
              (* Fixed-trip polynomial refinement: fully predictable. *)
              "p" <-- v "s";
              Ast.For
                ( "k",
                  i 0,
                  i 4,
                  [
                    "p" <-- (((v "p" * i 3) + v "x") &&& i 0xFFFFFF);
                    "acc" <-- (v "acc" + (v "p" &&& i 15));
                  ] );
              Ast.Store (i c_base + (v "i" &&& i len_mask), v "p");
              Ast.Store (i out_addr, v "acc");
            ] );
      ];
  }

let input ~seed ~overflow_percent =
  let vals seed' hi = Bench.gen ~seed:seed' len (fun r _ -> Wish_util.Rng.int r hi) in
  (* Element magnitudes set how often the overflow arm fires. *)
  let a =
    Bench.gen ~seed len (fun r _ ->
        if Wish_util.Rng.chance r ~percent:overflow_percent then
          4_000 + Wish_util.Rng.int r 100
        else Wish_util.Rng.int r 2_000)
  in
  [ Bench.array_at a_base a; Bench.array_at b_base (vals (seed + 1) 4_000) ]

let bench ~scale =
  {
    Bench.name = "gap";
    description = "vector arithmetic with rare overflow checks: highly predictable branches";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = input ~seed:71 ~overflow_percent:4 };
        { Bench.label = "B"; data = input ~seed:72 ~overflow_percent:1 };
        { Bench.label = "C"; data = input ~seed:73 ~overflow_percent:8 };
      ];
    profile_input = "B";
    mem_words = 1 lsl 16;
    approx_dyn_insts = 125_000 * scale;
  }
