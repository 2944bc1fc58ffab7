(** 175.vpr analogue: simulated-annealing placement kernel.

    The accept/reject decision of a proposed swap depends on a cost delta
    and a pseudo-random acceptance test — classically hard to predict, with
    the acceptance rate (and hence predictability) set by the input
    "temperature". A short bounding-box scan loop supplies wish-loop
    opportunities (vpr gains >3% from wish loops in Figure 12). *)

open Wish_compiler

let cost_base = 1_000
let rnd_base = 10_000
let grid_base = 20_000
let tbl = 8192
let out_addr = 500

let iters scale = 2_200 * scale

(* The acceptance threshold lives in data memory so inputs can retune it. *)
let thresh_addr = 600

let tbl_mask = tbl - 1

let ast scale =
  let open Ast.O in
  {
    Ast.funcs = [];
    main =
      [
        "acc" <-- i 0;
        "accepted" <-- i 0;
        "thresh" <-- mem (i thresh_addr);
        Ast.For
          ( "t",
            i 0,
            i (iters scale),
            [
              "r" <-- mem (i rnd_base + (v "t" &&& i tbl_mask));
              "delta" <-- (mem (i cost_base + (v "t" &&& i tbl_mask)) - i 512);
              Ast.If
                ( v "delta" < i 0,
                  [
                    (* Downhill move: always accept, update the grid. *)
                    "accepted" <-- (v "accepted" + i 1);
                    "g" <-- ((v "r" >> i 3) &&& i 1023);
                    Ast.Store (i grid_base + v "g", mem (i grid_base + v "g") + v "delta");
                    "acc" <-- (v "acc" + v "delta");
                    "acc" <-- (v "acc" &&& i 0xFFFFFF);
                  ],
                  [
                    (* Uphill move: accept with temperature probability. *)
                    Ast.If
                      ( (v "r" &&& i 1023) < v "thresh",
                        [
                          "accepted" <-- (v "accepted" + i 1);
                          "g" <-- ((v "r" >> i 5) &&& i 1023);
                          Ast.Store
                            (i grid_base + v "g", mem (i grid_base + v "g") + i 1);
                          "acc" <-- (v "acc" + v "delta");
                          "acc" <-- (v "acc" ^^ v "r");
                        ],
                        [
                          "acc" <-- (v "acc" + i 1);
                          "acc" <-- (v "acc" ^^ (v "delta" &&& i 255));
                          "g" <-- (v "acc" &&& i 7);
                          "acc" <-- (v "acc" + v "g");
                          "acc" <-- (v "acc" &&& i 0xFFFFFF);
                        ] );
                  ] );
              (* Bounding-box rescan: 1..8 cells, trip count data-driven. *)
              "k" <-- ((v "r" >> i 10) &&& i 7);
              Ast.While
                ( v "k" > i 0,
                  [
                    "acc" <-- (v "acc" + mem (i grid_base + ((v "g" + v "k") &&& i 1023)));
                    "k" <-- (v "k" - i 1);
                  ] );
              Ast.Store (i out_addr, v "acc");
            ] );
      ];
  }

let costs seed = Bench.gen ~seed tbl (fun r _ -> Wish_util.Rng.int r 1024)
let rnds seed = Bench.gen ~seed tbl (fun r _ -> Wish_util.Rng.bits r land 0xFFFF)

(* A: hot annealing (threshold mid, ~50% uphill acceptance — hard);
   B: frozen (threshold tiny: uphill nearly always rejected — predictable);
   C: warm (intermediate). *)
let input temp seed1 seed2 =
  [
    Bench.array_at thresh_addr [| temp |];
    Bench.array_at cost_base (costs seed1);
    Bench.array_at rnd_base (rnds seed2);
  ]

let bench ~scale =
  {
    Bench.name = "vpr";
    description = "simulated annealing: temperature-dependent accept branch, bounding-box loops";
    ast = ast scale;
    inputs =
      [
        { Bench.label = "A"; data = input 512 111 112 };
        { Bench.label = "B"; data = input 40 211 212 };
        { Bench.label = "C"; data = input 230 311 312 };
      ];
    profile_input = "B";
    mem_words = 1 lsl 16;
    approx_dyn_insts = 135_000 * scale;
  }
