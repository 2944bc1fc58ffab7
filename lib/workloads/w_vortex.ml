(** 255.vortex analogue: object-store insert/lookup.

    vortex has the lowest misprediction rate in Table 4 (0.8/1K µops):
    validity checks that essentially always pass and lookups that almost
    always hit. Its wish branches should be estimated high-confidence
    nearly always, so wish code should track the normal binary. *)

open Wish_compiler

let table_base = 32_768
let table_len = 4_096
let obj_base = 1_000
let obj_len = 8192
let out_addr = 500

let iters scale = 1_800 * scale

let obj_mask = obj_len - 1
let table_mask = table_len - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs =
      [
        (* Object validation: called per transaction, fully predictable. *)
        ( "validate",
          [
            Ast.If
              ( v "obj" > i 0,
                [
                  "valid" <-- (v "valid" + i 1);
                  "sig" <-- ((v "sig" * i 33) + v "obj");
                  "sig" <-- (v "sig" &&& i 0xFFFFFF);
                ],
                [
                  "valid" <-- (v "valid" - i 1);
                  "sig" <-- (v "sig" ^^ i 0xDEAD);
                  "sig" <-- (v "sig" &&& i 0xFFFFFF);
                ] );
          ] );
      ];
    main =
      [
        "acc" <-- i 0;
        "valid" <-- i 0;
        "sig" <-- i 0;
        "hits" <-- i 0;
        Ast.For
          ( "i",
            i 0,
            i (iters scale),
            [
              "obj" <-- mem (i obj_base + (v "i" &&& i obj_mask));
              Ast.Call "validate";
              "h" <-- ((v "obj" * i 2_654_435) &&& i table_mask);
              "slot" <-- mem (i table_base + v "h");
              (* Lookup hit check: hits ~95% of the time. *)
              Ast.If
                ( v "slot" = v "obj",
                  [
                    "hits" <-- (v "hits" + i 1);
                    "acc" <-- (v "acc" + (v "h" &&& i 255));
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                    "sig" <-- (v "sig" + i 3);
                    "sig" <-- (v "sig" &&& i 0xFFFFFF);
                  ],
                  [
                    (* Rare miss: insert the object. *)
                    Ast.Store (i table_base + v "h", v "obj");
                    "acc" <-- (v "acc" + i 13);
                    "acc" <-- (v "acc" ^^ v "h");
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                    "sig" <-- (v "sig" + i 1);
                  ] );
              Ast.Store (i out_addr, v "acc");
            ] );
        Ast.Store (i out_addr + i 1, v "sig");
      ];
  }

(* Transactions reference a modest pool of live objects (so table lines
   are reused and stay cache-resident, as in a real object store). Pool
   members get collision-free slots by construction; [hit_percent] of
   transactions reference a pool object, the rest are unknown objects. *)
let pool_size = 400

let build_input ~seed ~hit_percent =
  let rng = Wish_util.Rng.create seed in
  let table = Array.make table_len 0 in
  let pool = Array.make pool_size 0 in
  let filled = ref 0 in
  while !filled < pool_size do
    let o = 1 + (Wish_util.Rng.bits rng land 0xFFFFF) in
    let slot = o * 2_654_435 land (table_len - 1) in
    if table.(slot) = 0 then begin
      table.(slot) <- o;
      pool.(!filled) <- o;
      incr filled
    end
  done;
  let objs =
    Array.init obj_len (fun _ ->
        if Wish_util.Rng.chance rng ~percent:hit_percent then
          pool.(Wish_util.Rng.int rng pool_size)
        else 1 + (Wish_util.Rng.bits rng land 0xFFFFF))
  in
  [ Bench.array_at table_base table; Bench.array_at obj_base objs ]

let bench ~scale =
  {
    Bench.name = "vortex";
    description = "object store: near-always-hit lookups and always-valid checks";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = build_input ~seed:81 ~hit_percent:93 };
        { Bench.label = "B"; data = build_input ~seed:82 ~hit_percent:97 };
        { Bench.label = "C"; data = build_input ~seed:83 ~hit_percent:95 };
      ];
    profile_input = "B";
    mem_words = 1 lsl 16;
    approx_dyn_insts = 55_000 * scale;
  }
