(** 164.gzip analogue: LZ-style compression kernel.

    The hot branch is the literal-vs-match decision, whose bias tracks the
    input's compressibility — the paper's Figure 1 shows gzip's predicated
    binary winning or losing depending on input. Match copies are short
    variable-trip loops, the wish-loop sweet spot. *)

open Wish_compiler

let src_base = 1_000
let src_len = 4096
let len_base = 8_000
let hist_base = 16_000
let out_addr = 500

let iters scale = 2_500 * scale

let src_mask = src_len - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs = [];
    main =
      [
        "out" <-- i 0;
        "lit" <-- i 0;
        Ast.For
          ( "i",
            i 0,
            i (iters scale),
            [
              "x" <-- mem (i src_base + (v "i" &&& i src_mask));
              Ast.If
                ( v "x" < i 128,
                  [
                    (* Literal path: update the byte histogram and checksum. *)
                    "lit" <-- (v "lit" + i 1);
                    "h" <-- ((v "out" ^^ v "x") &&& i 255);
                    Ast.Store (i hist_base + v "h", mem (i hist_base + v "h") + i 1);
                    "out" <-- ((v "out" * i 31) + v "x");
                    "out" <-- (v "out" &&& i 0xFFFFFF);
                    "lit" <-- (v "lit" &&& i 0xFFFF);
                  ],
                  [
                    (* Match path: fold in the back-reference offset. *)
                    "off" <-- ((v "x" &&& i 63) + i 1);
                    "out" <-- (v "out" + (v "off" * i 3));
                    "out" <-- (v "out" ^^ v "off");
                    "out" <-- (v "out" &&& i 0xFFFFFF);
                    "lit" <-- (v "lit" &&& i 0xFFFF);
                  ] );
              (* Emission loop: trip count comes from its own length
                 stream, independent of the literal/match decision. *)
              "k" <-- mem (i len_base + (v "i" &&& i src_mask));
              Ast.While
                ( v "k" > i 0,
                  [
                    "out"
                    <-- (v "out" + mem (i src_base + ((v "i" + v "k") &&& i src_mask)));
                    "k" <-- (v "k" - i 1);
                  ] );
              Ast.Store (i out_addr, v "out");
            ] );
      ];
  }

(* Inputs: A = uncompressible (uniform bytes: the literal/match branch is a
   coin flip), B = highly compressible (strongly biased, predictable),
   C = mixed with run structure (partially predictable). *)
let input_a =
  [
    Bench.array_at src_base (Bench.gen ~seed:101 src_len (fun r _ -> Wish_util.Rng.int r 256));
    Bench.array_at len_base (Bench.gen ~seed:102 src_len (fun r _ -> 1 + Wish_util.Rng.int r 7));
  ]

let input_b =
  [
    Bench.array_at src_base
      (Bench.gen ~seed:201 src_len (fun r _ ->
           if Wish_util.Rng.chance r ~percent:88 then Wish_util.Rng.int r 128
           else 128 + Wish_util.Rng.int r 128));
    Bench.array_at len_base (Bench.gen ~seed:202 src_len (fun r _ -> 1 + Wish_util.Rng.int r 3));
  ]

let input_c =
  let run = ref 0 and low = ref true in
  [
    Bench.array_at src_base
      (Bench.gen ~seed:301 src_len (fun r _ ->
           if !run = 0 then begin
             run := 2 + Wish_util.Rng.int r 6;
             low := Wish_util.Rng.chance r ~percent:65
           end;
           decr run;
           if !low then Wish_util.Rng.int r 128 else 128 + Wish_util.Rng.int r 128));
    Bench.array_at len_base
      (Bench.gen ~seed:302 src_len (fun r _ ->
           1 + Wish_util.Rng.geometric r ~stop_percent:40 ~max:7));
  ]

let bench ~scale =
  {
    Bench.name = "gzip";
    description = "LZ-style compression: input-dependent literal/match branch, short copy loops";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = input_a };
        { Bench.label = "B"; data = input_b };
        { Bench.label = "C"; data = input_c };
      ];
    profile_input = "B";
    mem_words = 1 lsl 16;
    approx_dyn_insts = 150_000 * scale;
  }
