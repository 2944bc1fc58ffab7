(** 256.bzip2 analogue: sort partitioning and run-length coding.

    bzip2's block-sort compares are pure coin flips on incompressible data
    (Figure 1 shows a 16% predication loss on one input and a win on
    another): the partition branch's predictability tracks how sorted the
    input already is. Run-length loops add short variable-trip wish-loop
    targets. *)

open Wish_compiler

let arr_base = 1_000
let arr_len = 8192
let run_base = 16_384
let run_len = 4096
let out_addr = 500

let iters scale = 2_200 * scale

let arr_mask = arr_len - 1
let run_mask = run_len - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs = [];
    main =
      [
        "acc" <-- i 0;
        "lo" <-- i 0;
        "hi" <-- i 0;
        Ast.For
          ( "i",
            i 0,
            i (iters scale),
            [
              "j" <-- (v "i" &&& i arr_mask);
              "x" <-- mem (i arr_base + v "j");
              "pivot" <-- mem (i arr_base + ((v "i" * i 7) &&& i arr_mask));
              (* Partition step: comparability of x and pivot is the
                 input-controlled hard branch. *)
              Ast.If
                ( v "x" < v "pivot",
                  [
                    "lo" <-- (v "lo" + i 1);
                    "acc" <-- (v "acc" + v "x");
                    Ast.Store (i arr_base + v "j", (v "x" << i 1) &&& i 0xFFFF);
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                    "acc" <-- (v "acc" ^^ v "lo");
                  ],
                  [
                    "hi" <-- (v "hi" + i 1);
                    "acc" <-- (v "acc" + v "pivot");
                    Ast.Store (i arr_base + v "j", (v "x" >> i 1) + i 1);
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                    "acc" <-- (v "acc" + (v "hi" &&& i 31));
                  ] );
              (* Run-length emission: 1..8 symbol repeats. *)
              "r" <-- (mem (i run_base + (v "i" &&& i run_mask)) &&& i 7);
              Ast.Do_while
                ( [
                    "acc" <-- (v "acc" + (v "r" * i 5));
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                    "r" <-- (v "r" - i 1);
                  ],
                  v "r" > i 0 );
              Ast.Store (i out_addr, v "acc");
            ] );
      ];
  }

(* A = incompressible (uniform values: partition is a coin flip);
   B = text-like (skewed alphabet: biased, fairly predictable);
   C = mostly pre-sorted (x<pivot correlates with position: predictable). *)
let build_input ~seed ~kind =
  let rng = Wish_util.Rng.create seed in
  let arr =
    Array.init arr_len (fun k ->
        match kind with
        | `Random -> Wish_util.Rng.int rng 65536
        | `Skewed ->
          if Wish_util.Rng.chance rng ~percent:80 then Wish_util.Rng.int rng 4096
          else Wish_util.Rng.int rng 65536
        | `Sorted -> (k * 8) + Wish_util.Rng.int rng 4)
  in
  let runs =
    Array.init run_len (fun _ ->
        match kind with
        | `Random -> Wish_util.Rng.int rng 8
        | `Skewed | `Sorted -> Wish_util.Rng.geometric rng ~stop_percent:45 ~max:7)
  in
  [ Bench.array_at arr_base arr; Bench.array_at run_base runs ]

let bench ~scale =
  {
    Bench.name = "bzip2";
    description = "block-sort partitioning: input-sortedness controls branch entropy";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = build_input ~seed:91 ~kind:`Random };
        { Bench.label = "B"; data = build_input ~seed:92 ~kind:`Skewed };
        { Bench.label = "C"; data = build_input ~seed:93 ~kind:`Sorted };
      ];
    profile_input = "B";
    mem_words = 1 lsl 16;
    approx_dyn_insts = 110_000 * scale;
  }
