(* Wish loops (paper Section 3.2): reducing the misprediction penalty of
   hard-to-predict backward branches.

   A loop that iterates "a small but variable number of times" defeats
   branch predictors at its exit. A wish loop executes iterations
   predicated in low-confidence mode: when the front end overshoots the
   real exit, the extra iterations drain through the pipeline as NOPs (a
   "late exit") instead of costing a full pipeline flush.

   Run with:  dune exec examples/wish_loop_demo.exe *)

open Wishbranch

(* do-while loop whose trip count is a pseudo-random 1..8 draw per visit. *)
let ast =
  let open Compiler.Ast.O in
  let open Compiler.Ast in
  {
    funcs = [];
    main =
      [
        "acc" <-- i 0;
        For
          ( "v",
            i 0,
            i 3000,
            [
              "k" <-- ((mem (i 1000 + (v "v" &&& i 2047)) &&& i 7) + i 1);
              Do_while
                ( [ "acc" <-- (v "acc" + (v "k" * i 3)); "k" <-- (v "k" - i 1) ],
                  v "k" > i 0 );
              Store (i 500, v "acc");
            ] );
      ];
  }

let data =
  let rng = Util.Rng.create 99 in
  Isa.Program.segments_of_pairs (List.init 2048 (fun k -> (1000 + k, Util.Rng.bits rng)))

let () =
  let bins = Compiler.compile_all ~name:"wish-loop-demo" ~profile_data:data ast in
  let run kind =
    Sim.Runner.simulate (Isa.Program.with_data (Compiler.binary bins kind) data)
  in
  let normal = run Compiler.Policy.Normal in
  let wish = run Compiler.Policy.Wish_jjl in
  Printf.printf "normal loop branch:  %7d cycles, %5d flushes\n" normal.cycles normal.flushes;
  Printf.printf "wish loop:           %7d cycles, %5d flushes\n" wish.cycles wish.flushes;
  let g = Sim.Counters.get wish.counts in
  Printf.printf "\nwish loop outcome classification (dynamic):\n";
  Printf.printf "  low-confidence correct     %6d\n" (g Sim.Counters.loop_low_correct);
  Printf.printf "  low-confidence late-exit   %6d  (mispredicted, NO flush: the win)\n"
    (g Sim.Counters.loop_low_late);
  Printf.printf "  low-confidence early-exit  %6d  (flush, like a normal branch)\n"
    (g Sim.Counters.loop_low_early);
  Printf.printf "  low-confidence no-exit     %6d  (flush)\n" (g Sim.Counters.loop_low_noexit);
  Printf.printf "  high-confidence correct    %6d\n" (g Sim.Counters.loop_high_correct);
  Printf.printf "  high-confidence mispred    %6d\n" (g Sim.Counters.loop_high_mispred);
  Printf.printf "\nphantom iterations retired as NOPs: %d uops\n" wish.retired_phantom
