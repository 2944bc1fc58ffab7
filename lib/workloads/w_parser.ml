(** 197.parser analogue: dictionary lookup with open-addressing probes.

    parser has the highest misprediction rate in Table 4 (9.6/1K µops):
    hash-probe loops exit after an unpredictable number of collisions. The
    probe loop is a prime wish-loop candidate (parser gains >3% from wish
    loops in Figure 12); the dictionary load factor (per input) sets probe
    lengths and exit predictability. *)

open Wish_compiler

let dict_base = 32_768
let dict_len = 16_384 (* power of two; probe mask *)
let tok_base = 1_000
let tok_len = 8192
let out_addr = 500

let iters scale = 1_800 * scale

let dict_mask = dict_len - 1
let tok_mask = tok_len - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs = [];
    main =
      [
        "found" <-- i 0;
        "missed" <-- i 0;
        "acc" <-- i 0;
        (* Dictionary warm-up sweep (one touch per cache line), as a
           long-running parser would have: keeps the measurement phase from
           being dominated by cold first-touch misses. *)
        Ast.For
          ( "w",
            i 0,
            i (dict_len / 8),
            [ "acc" <-- (v "acc" + mem (i dict_base + (v "w" << i 3))) ] );
        "acc" <-- (v "acc" &&& i 0xFFFFFF);
        Ast.For
          ( "i",
            i 0,
            i (iters scale),
            [
              "tok" <-- mem (i tok_base + (v "i" &&& i tok_mask));
              "h" <-- ((v "tok" * i 40503) &&& i dict_mask);
              "probe" <-- mem (i dict_base + v "h");
              (* Open-addressing probe: continue while the slot is occupied
                 by a different key. Straight-line body => wish loop. *)
              Ast.While
                ( (v "probe" <> i 0) &&& (v "probe" <> v "tok"),
                  [
                    "h" <-- ((v "h" + i 1) &&& i dict_mask);
                    "probe" <-- mem (i dict_base + v "h");
                  ] );
              Ast.If
                ( v "probe" = v "tok",
                  [
                    "found" <-- (v "found" + i 1);
                    "acc" <-- (v "acc" + v "h");
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                  ],
                  [
                    "missed" <-- (v "missed" + i 1);
                    "acc" <-- (v "acc" ^^ v "tok");
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                  ] );
              Ast.Store (i out_addr, v "acc");
            ] );
      ];
  }

(* Fill the dictionary to a given load factor with the same hash function
   the kernel uses, so probe sequences are realistic; tokens hit with
   probability [hit_percent]. *)
let build_input ~seed ~load_percent ~hit_percent =
  let rng = Wish_util.Rng.create seed in
  let dict = Array.make dict_len 0 in
  let keys = ref [] in
  let target = dict_len * load_percent / 100 in
  let inserted = ref 0 in
  while !inserted < target do
    let key = 1 + (Wish_util.Rng.bits rng land 0xFFFFF) in
    let h = ref (key * 40503 land (dict_len - 1)) in
    while dict.(!h) <> 0 && dict.(!h) <> key do
      h := (!h + 1) land (dict_len - 1)
    done;
    if dict.(!h) = 0 then begin
      dict.(!h) <- key;
      keys := key :: !keys;
      incr inserted
    end
  done;
  let keys = Array.of_list !keys in
  let tokens =
    Array.init tok_len (fun _ ->
        if Wish_util.Rng.chance rng ~percent:hit_percent then
          keys.(Wish_util.Rng.int rng (Array.length keys))
        else 1 + (Wish_util.Rng.bits rng land 0xFFFFF))
  in
  [ Bench.array_at dict_base dict; Bench.array_at tok_base tokens ]

let bench ~scale =
  {
    Bench.name = "parser";
    description = "dictionary probing: unpredictable-exit hash probe loops";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = build_input ~seed:61 ~load_percent:75 ~hit_percent:60 };
        { Bench.label = "B"; data = build_input ~seed:62 ~load_percent:40 ~hit_percent:90 };
        { Bench.label = "C"; data = build_input ~seed:63 ~load_percent:65 ~hit_percent:75 };
      ];
    profile_input = "B";
    mem_words = 1 lsl 16;
    approx_dyn_insts = 150_000 * scale;
  }
