(* Compiler tests.

   The centerpiece is differential testing: every Kernel program is (a)
   evaluated by the fuzzer's source evaluator ({!Wish_fuzz.Source}),
   written directly against the AST semantics, and (b) compiled into all
   five Table-3 binary flavours and run on the architectural emulator.
   All six memories must agree. A QCheck
   generator feeds random programs through this pipeline. *)

open Wish_compiler
module Lab = Wish_experiments.Lab

let check = Alcotest.check
let qtest t = QCheck_alcotest.to_alcotest ~speed_level:`Quick t

let mem_words = 4096

(* Reference: the fuzzer's evaluator over the AST. *)
let reference_memory (p : Ast.program) data =
  Wish_fuzz.Source.run ~fuel:max_int ~mem_words ~data:(Wish_isa.Program.segments_of_pairs data) p

(* Differential check ----------------------------------------------------- *)

(* Compare only below the compiler's spill region (top of memory): spill
   slots are implementation detail, not program-visible state. *)
let visible_words = mem_words - Codegen.spill_reserve

let emulate_memory program =
  let _, st = Wish_emu.Profile.of_program program in
  Array.init visible_words (fun a -> Wish_emu.Memory.read st.Wish_emu.State.mem a)

let agree_all ?profile_data ~data (ast : Ast.program) =
  let profile_data = Option.value profile_data ~default:data in
  let bins =
    Compiler.compile_all ~mem_words ~name:"t"
      ~profile_data:(Wish_isa.Program.segments_of_pairs profile_data)
      ast
  in
  let expected = Array.sub (reference_memory ast data) 0 visible_words in
  let segments = Wish_isa.Program.segments_of_pairs data in
  List.for_all
    (fun kind ->
      let p = Wish_isa.Program.with_data (Compiler.binary bins kind) segments in
      emulate_memory p = expected)
    Compiler.all_kinds

let check_agree ?profile_data ~data ast =
  Alcotest.(check bool) "all binaries match the reference" true (agree_all ?profile_data ~data ast)

(* Handwritten programs ---------------------------------------------------- *)

let open_ast = Ast.O.( <-- )

let _ = open_ast

let test_arithmetic () =
  let open Ast.O in
  check_agree ~data:[]
    {
      Ast.funcs = [];
      main =
        [
          "a" <-- ((i 7 * i 9) - (i 3 << i 2));
          "b" <-- ((v "a" >> i 1) ^^ (v "a" &&& i 12) ||| i 1);
          "c" <-- (v "a" < v "b");
          "d" <-- ((v "a" >= i 0) + (v "b" <> i 0));
          Ast.Store (i 10, v "a");
          Ast.Store (i 11, v "b");
          Ast.Store (i 12, v "c");
          Ast.Store (i 13, v "d");
        ];
    }

let test_if_else_both_paths () =
  let open Ast.O in
  List.iter
    (fun x ->
      check_agree
        ~data:[ (0, x) ]
        {
          Ast.funcs = [];
          main =
            [
              "x" <-- mem (i 0);
              Ast.If
                ( v "x" > i 5,
                  [ "y" <-- (v "x" * i 2); "z" <-- (v "y" + i 1) ],
                  [ "y" <-- (v "x" + i 100); "z" <-- (v "y" - i 1) ] );
              Ast.Store (i 1, v "y");
              Ast.Store (i 2, v "z");
            ];
        })
    [ 0; 5; 6; 99 ]

let test_nested_if_predication () =
  (* Nested Ifs are convertible and exercise cmp.unc correctness. *)
  let open Ast.O in
  List.iter
    (fun (x, y) ->
      check_agree
        ~data:[ (0, x); (1, y) ]
        {
          Ast.funcs = [];
          main =
            [
              "x" <-- mem (i 0);
              "y" <-- mem (i 1);
              Ast.If
                ( v "x" > i 0,
                  [
                    Ast.If
                      ( v "y" > i 0,
                        [ "r" <-- i 11 ],
                        [ "r" <-- i 22 ] );
                    "s" <-- (v "r" + i 1);
                  ],
                  [
                    Ast.If (v "y" > i 5, [ "r" <-- i 33 ], [ "r" <-- i 44 ]);
                    "s" <-- (v "r" + i 2);
                  ] );
              Ast.Store (i 2, v "r");
              Ast.Store (i 3, v "s");
            ];
        })
    [ (1, 1); (1, 0); (0, 9); (0, 0) ]

let test_loops () =
  let open Ast.O in
  check_agree ~data:[]
    {
      Ast.funcs = [];
      main =
        [
          "sum" <-- i 0;
          Ast.For ("k", i 0, i 10, [ "sum" <-- (v "sum" + v "k") ]);
          "n" <-- i 5;
          Ast.While (v "n" > i 0, [ "sum" <-- (v "sum" * i 2); "n" <-- (v "n" - i 1) ]);
          "m" <-- i 3;
          Ast.Do_while ([ "sum" <-- (v "sum" + i 7); "m" <-- (v "m" - i 1) ], v "m" > i 0);
          Ast.Store (i 20, v "sum");
        ];
    }

let test_zero_trip_while () =
  let open Ast.O in
  check_agree ~data:[]
    {
      Ast.funcs = [];
      main =
        [
          "x" <-- i 1;
          Ast.While (i 0 <> i 0, [ "x" <-- i 999 ]);
          Ast.Store (i 5, v "x");
        ];
    }

(* A loop condition [a & b] is a bitwise and, not a conjunction: with
   v1 = 2, [v1 & 1] is 0 though both operands are non-zero, and so is
   [(n > 0) & m] with m = 2. Every kind must skip both loops. A
   conjunction of comparisons stays one, and runs its loop. *)
let test_and_loop_conditions () =
  let open Ast.O in
  check_agree ~data:[]
    {
      Ast.funcs = [];
      main =
        [
          "v1" <-- i 2;
          Ast.While (v "v1" &&& i 1, [ "v1" <-- (v "v1" - i 1); "v0" <-- (v "v0" + i 1) ]);
          "n" <-- i 3;
          "m" <-- i 2;
          Ast.While ((v "n" > i 0) &&& v "m", [ "n" <-- (v "n" - i 1); "v0" <-- (v "v0" + i 10) ]);
          Ast.While
            ( (v "n" > i 0) &&& (v "m" > i 0) &&& (v "v1" > i 1),
              [ "n" <-- (v "n" - i 1); "v0" <-- (v "v0" + i 100) ] );
          Ast.Store (i 0, v "v0");
          Ast.Store (i 1, v "v1");
          Ast.Store (i 2, v "n");
        ];
    }

let test_functions () =
  let open Ast.O in
  check_agree ~data:[]
    {
      Ast.funcs =
        [
          ("inc", [ "acc" <-- (v "acc" + i 1) ]);
          ("twice", [ Ast.Call "inc"; Ast.Call "inc" ]);
        ];
      main =
        [ "acc" <-- i 0; Ast.Call "twice"; Ast.Call "inc"; Ast.Store (i 0, v "acc") ];
    }

let test_spilled_variables () =
  (* More variables than allocatable registers: forces memory spills. *)
  let open Ast.O in
  let names = List.init 60 (fun k -> Printf.sprintf "v%d" k) in
  let assigns = List.mapi (fun k n -> n <-- i Stdlib.(k * 3)) names in
  let sum = List.fold_left (fun acc n -> acc + v n) (i 0) names in
  check_agree ~data:[]
    { Ast.funcs = []; main = assigns @ [ "total" <-- sum; Ast.Store (i 0, v "total") ] }

let test_profile_changes_base_def () =
  (* A rarely-true hammock: with an honest profile BASE-DEF keeps the
     branch; BASE-MAX predicates it regardless. *)
  let ast =
    let open Ast.O in
    {
      Ast.funcs = [];
      main =
        [
          "s" <-- i 0;
          Ast.For
            ( "k",
              i 0,
              i 200,
              [
                "x" <-- mem (v "k" &&& i 63);
                Ast.If
                  ( v "x" > i 1000,
                    [ "s" <-- (v "s" + i 1); "s" <-- (v "s" ^^ v "x"); "s" <-- (v "s" &&& i 255) ],
                    [ "s" <-- (v "s" + i 2); "s" <-- (v "s" ^^ i 9); "s" <-- (v "s" &&& i 255) ]
                  );
              ] );
          Ast.Store (i 100, v "s");
        ];
    }
  in
  let data = List.init 64 (fun k -> (k, k)) (* x <= 63: branch never taken *) in
  let bins =
    Compiler.compile_all ~mem_words ~name:"p"
      ~profile_data:(Wish_isa.Program.segments_of_pairs data)
      ast
  in
  let count_guarded kind =
    let code = Wish_isa.Program.code (Compiler.binary bins kind) in
    Wish_isa.Code.count code (fun i -> Stdlib.( <> ) i.Wish_isa.Inst.guard Wish_isa.Reg.p0)
  in
  Alcotest.(check bool) "BASE-MAX predicates more than BASE-DEF" true
    (count_guarded Policy.Base_max > count_guarded Policy.Base_def)

let test_wish_binary_contains_wish_branches () =
  let ast =
    let open Ast.O in
    {
      Ast.funcs = [];
      main =
        [
          "x" <-- mem (i 0);
          Ast.If
            ( v "x" > i 0,
              [ "y" <-- (v "x" + i 1); "y" <-- (v "y" * i 3); "y" <-- (v "y" ^^ i 5);
                "y" <-- (v "y" + i 7); "y" <-- (v "y" &&& i 255); "y" <-- (v "y" + i 1) ],
              [ "y" <-- (v "x" - i 1); "y" <-- (v "y" * i 5); "y" <-- (v "y" ^^ i 3);
                "y" <-- (v "y" + i 9); "y" <-- (v "y" &&& i 127); "y" <-- (v "y" + i 2) ] );
          "n" <-- i 4;
          Ast.Do_while ([ "y" <-- (v "y" + i 1); "n" <-- (v "n" - i 1) ], v "n" > i 0);
          Ast.Store (i 1, v "y");
        ];
    }
  in
  let bins =
    Compiler.compile_all ~mem_words ~name:"w"
      ~profile_data:(Wish_isa.Program.segments_of_pairs [ (0, 1) ])
      ast
  in
  let wish_count kind =
    Wish_isa.Code.static_wish_branches (Wish_isa.Program.code (Compiler.binary bins kind))
  in
  let loop_count kind =
    Wish_isa.Code.static_wish_loops (Wish_isa.Program.code (Compiler.binary bins kind))
  in
  check Alcotest.int "normal has none" 0 (wish_count Policy.Normal);
  check Alcotest.int "base-max has none" 0 (wish_count Policy.Base_max);
  check Alcotest.int "wish-jj has jump+join" 2 (wish_count Policy.Wish_jj);
  check Alcotest.int "wish-jj has no loops" 0 (loop_count Policy.Wish_jj);
  check Alcotest.int "wish-jjl adds the loop" 3 (wish_count Policy.Wish_jjl);
  check Alcotest.int "wish-jjl loop count" 1 (loop_count Policy.Wish_jjl)

(* The wish kinds decide from sizes alone, never from the profile: on
   every workload they compile to the same code with and without one, so
   a variant wish binary needs no profiling run. *)
let test_wish_kinds_ignore_profile () =
  List.iter
    (fun name ->
      let b = Wish_workloads.Workloads.find ~scale:1 name in
      let compile ?profile kind =
        let p, _ = Compiler.compile_kind ~mem_words:b.mem_words ?profile ~name b.ast kind in
        Format.asprintf "%a" Wish_isa.Code.pp (Wish_isa.Program.code p)
      in
      let normal, bmap = Compiler.compile_kind ~mem_words:b.mem_words ~name b.ast Policy.Normal in
      let profile =
        Compiler.profile_of_run
          (Wish_isa.Program.with_data normal (Wish_workloads.Bench.profile_data b))
          bmap
      in
      List.iter
        (fun kind ->
          check Alcotest.string
            (Printf.sprintf "%s %s" name (Policy.kind_name kind))
            (compile ~profile kind) (compile kind))
        [ Policy.Wish_jj; Policy.Wish_jjl ])
    Wish_workloads.Workloads.names

let test_codegen_rejects_call_in_region () =
  (* A call inside a convertible-looking region must be refused. The arms
     here contain calls, so they are not convertible; the If stays a
     branch and compilation succeeds — the error fires only for the
     (internal) inconsistent case, so here we just assert success. *)
  let open Ast.O in
  check_agree ~data:[ (0, 1) ]
    {
      Ast.funcs = [ ("f", [ "a" <-- (v "a" + i 1) ]) ];
      main =
        [
          "x" <-- mem (i 0);
          Ast.If (v "x" > i 0, [ Ast.Call "f" ], [ "a" <-- i 5 ]);
          Ast.Store (i 1, v "a");
        ];
    }

let test_undefined_function () =
  Alcotest.check_raises "undefined callee"
    (Codegen.Error "call to undefined function nope") (fun () ->
      ignore
        (Compiler.compile_kind ~mem_words ~name:"bad"
           { Ast.funcs = []; main = [ Ast.Call "nope" ] }
           Policy.Normal))

(* Policy unit tests ---------------------------------------------------------- *)

let test_cost_model () =
  let profile : Policy.profile = Hashtbl.create 4 in
  Hashtbl.replace profile 0 { Policy.executed = 1000; cond_true = 500 };
  Hashtbl.replace profile 1 { Policy.executed = 1000; cond_true = 995 };
  let p = Policy.create ~profile Policy.Base_def in
  (* 50/50 branch: misprediction cost dominates -> predicate. *)
  check Alcotest.bool "hard branch predicated" true
    (Policy.decide_if p ~id:0 ~convertible:true ~then_size:8 ~else_size:8 ~jumped_over_size:8
     = Policy.Predicate);
  (* 99.5% biased branch: prediction is nearly free -> keep. *)
  check Alcotest.bool "easy branch kept" true
    (Policy.decide_if p ~id:1 ~convertible:true ~then_size:8 ~else_size:8 ~jumped_over_size:8
     = Policy.Keep_branch)

let test_policy_kind_matrix () =
  let dec kind ~jumped =
    Policy.decide_if (Policy.create kind) ~id:0 ~convertible:true ~then_size:10 ~else_size:10
      ~jumped_over_size:jumped
  in
  check Alcotest.bool "normal keeps" true (dec Policy.Normal ~jumped:10 = Policy.Keep_branch);
  check Alcotest.bool "base-max predicates" true (dec Policy.Base_max ~jumped:10 = Policy.Predicate);
  check Alcotest.bool "wish converts large blocks" true
    (dec Policy.Wish_jj ~jumped:10 = Policy.Wish_jump_join);
  check Alcotest.bool "wish predicates small blocks (N=5)" true
    (dec Policy.Wish_jj ~jumped:4 = Policy.Predicate);
  check Alcotest.bool "unconvertible always kept" true
    (Policy.decide_if (Policy.create Policy.Base_max) ~id:0 ~convertible:false ~then_size:3
       ~else_size:3 ~jumped_over_size:3
    = Policy.Keep_branch)

let test_loop_policy () =
  let dec kind ~straight ~size =
    Policy.decide_loop (Policy.create kind) ~id:0 ~body_straight:straight ~body_size:size
  in
  check Alcotest.bool "only jjl converts loops" true
    (dec Policy.Wish_jj ~straight:true ~size:10 = Policy.Keep_loop);
  check Alcotest.bool "jjl converts small straight loops" true
    (dec Policy.Wish_jjl ~straight:true ~size:10 = Policy.Wish_loop);
  check Alcotest.bool "L=30 threshold" true
    (dec Policy.Wish_jjl ~straight:true ~size:31 = Policy.Keep_loop);
  check Alcotest.bool "control flow in body blocks conversion" true
    (dec Policy.Wish_jjl ~straight:false ~size:10 = Policy.Keep_loop)

(* Random program generation --------------------------------------------------- *)

let var_pool = [ "a"; "b"; "c"; "d"; "e" ]
let data_base = 256

let gen_program =
  let open QCheck.Gen in
  let var = oneofl var_pool in
  let rec expr n =
    if n <= 0 then oneof [ map (fun v -> Ast.Var v) var; map (fun k -> Ast.Int k) (int_range (-50) 50) ]
    else
      frequency
        [
          (2, map (fun v -> Ast.Var v) var);
          (2, map (fun k -> Ast.Int k) (int_range (-50) 50));
          ( 3,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.And; Ast.Or; Ast.Xor ])
              (expr (n - 1)) (expr (n - 1)) );
          ( 1,
            map2
              (fun a k -> Ast.Binop (Ast.Shr, a, Ast.Int k))
              (expr (n - 1)) (int_range 0 4) );
          ( 2,
            map3
              (fun op a b -> Ast.Cmp (op, a, b))
              (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
              (expr (n - 1)) (expr (n - 1)) );
          ( 1,
            map
              (fun a -> Ast.Load (Ast.Binop (Ast.Add, Ast.Int data_base, Ast.Binop (Ast.And, a, Ast.Int 63))))
              (expr (n - 1)) );
        ]
  in
  let straight_stmt =
    oneof
      [
        map2 (fun v e -> Ast.Assign (v, e)) var (expr 2);
        map2
          (fun a e ->
            Ast.Store (Ast.Binop (Ast.Add, Ast.Int data_base, Ast.Binop (Ast.And, a, Ast.Int 63)), e))
          (expr 1) (expr 2);
      ]
  in
  let block_of g = list_size (int_range 1 4) g in
  let rec stmt depth =
    if depth <= 0 then straight_stmt
    else
      frequency
        [
          (4, straight_stmt);
          ( 2,
            map3
              (fun c t f -> Ast.If (c, t, f))
              (expr 2)
              (block_of (stmt (depth - 1)))
              (block_of (stmt (depth - 1))) );
          ( 1,
            map2
              (fun hi body -> Ast.For ("k", Ast.Int 0, Ast.Int hi, body))
              (int_range 1 6)
              (block_of straight_stmt) );
          ( 1,
            map2
              (fun n body ->
                (* Terminating do-while: a dedicated counter the body never
                   writes (the body only uses the main var pool). *)
                Ast.If
                  ( Ast.Cmp (Ast.Ge, Ast.Int n, Ast.Int 0),
                    [
                      Ast.Assign ("cnt", Ast.Int n);
                      Ast.Do_while
                        ( body @ [ Ast.Assign ("cnt", Ast.Binop (Ast.Sub, Ast.Var "cnt", Ast.Int 1)) ],
                          Ast.Cmp (Ast.Gt, Ast.Var "cnt", Ast.Int 0) );
                    ],
                    [] ) )
              (int_range 1 5)
              (block_of straight_stmt) );
        ]
  in
  let program =
    map
      (fun stmts ->
        { Ast.funcs = []; main = stmts @ [ Ast.Store (Ast.Int 0, Ast.Var "a") ] })
      (list_size (int_range 2 6) (stmt 2))
  in
  program

let arbitrary_program = QCheck.make gen_program

let prop_five_binaries_equivalent =
  QCheck.Test.make ~name:"all five binaries match the reference interpreter" ~count:120
    arbitrary_program
    (fun ast ->
      let data = List.init 64 (fun k -> (data_base + k, (k * 37) land 255)) in
      agree_all ~data ast)

let prop_branch_numbering_stable =
  (* The same AST always produces binaries with identical instruction
     counts across compilations (determinism). *)
  QCheck.Test.make ~name:"compilation is deterministic" ~count:40 arbitrary_program (fun ast ->
      let compile () =
        let bins = Compiler.compile_all ~mem_words ~name:"d" ~profile_data:[] ast in
        List.map
          (fun k -> Wish_isa.Code.length (Wish_isa.Program.code (Compiler.binary bins k)))
          Compiler.all_kinds
      in
      compile () = compile ())

(* Identical binaries ------------------------------------------------------ *)

(* Which kinds compile each workload to the same binary at scale 1, and
   which kind the wish-jj binary compiled with threshold N=0 or N=100
   (Ablation A4) equals. A run is named by its binary's digest of code
   and entry, so a compiler change that splits or merges twins changes
   what the lab simulates: it shows up here first. Each twin found by
   code equality is also found by digest equality against a second,
   independent compile, so the digest covers the entry and does not
   depend on heap sharing. *)
let test_twin_table () =
  let row name =
    let b = Wish_workloads.Workloads.find ~scale:1 name in
    let compile () =
      let bins =
        Compiler.compile_all ~mem_words:b.mem_words ~name
          ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast
      in
      let variant n =
        fst
          (Compiler.compile_kind ~mem_words:b.mem_words ~wish_threshold_n:n ~name b.ast
             Policy.Wish_jj)
      in
      (bins, List.map (fun n -> (n, variant n)) [ 0; 100 ])
    in
    let bins, variants = compile () and bins', variants' = compile () in
    let first same =
      match List.find_opt (fun k -> same (Compiler.binary bins k)) Compiler.all_kinds with
      | Some k -> Policy.kind_name k
      | None -> "own"
    in
    (* [p]'s twin by code and entry; [p'], the same binary compiled
       again, must find it by digest. *)
    let twin (p : Wish_isa.Program.t) (p' : Wish_isa.Program.t) =
      let t = first (fun q -> q.entry = p.entry && Wish_isa.Code.equal q.code p.code) in
      let d = Lab.binary_digest p' in
      check Alcotest.string (name ^ ": the twin by digest") t
        (first (fun q -> Lab.binary_digest q = d));
      t
    in
    let normal = Compiler.binary bins Policy.Normal in
    Alcotest.(check bool)
      (name ^ ": the digest covers the entry")
      false
      (Lab.binary_digest normal
      = Lab.binary_digest { normal with Wish_isa.Program.entry = normal.entry + 1 });
    (* The same code with each set of equal instructions sharing one
       record. *)
    let shared =
      let seen = Hashtbl.create 256 in
      let canon i =
        match Hashtbl.find_opt seen i with
        | Some i -> i
        | None ->
          Hashtbl.add seen i i;
          i
      in
      let code = normal.code in
      Wish_isa.Code.create
        (Array.init (Wish_isa.Code.length code) (fun pc -> canon (Wish_isa.Code.get code pc)))
    in
    check Alcotest.string (name ^ ": the digest ignores heap sharing") (Lab.binary_digest normal)
      (Lab.binary_digest { normal with code = shared });
    let kinds =
      List.filter_map
        (fun k ->
          let t = twin (Compiler.binary bins k) (Compiler.binary bins' k) in
          if t = Policy.kind_name k then None else Some (Policy.kind_name k ^ "=" ^ t))
        Compiler.all_kinds
    in
    let variants =
      List.map2
        (fun (n, p) (_, p') -> Printf.sprintf "n%d=%s" n (twin p p'))
        variants variants'
    in
    String.concat " " ((name ^ ":") :: (kinds @ variants))
  in
  check
    Alcotest.(list string)
    "twins"
    [
      "gzip: base-def=normal n0=wish-jump-join n100=base-max";
      "vpr: base-def=normal n0=wish-jump-join n100=base-max";
      "mcf: base-def=normal wish-jump-join-loop=wish-jump-join n0=wish-jump-join n100=base-max";
      "crafty: n0=wish-jump-join n100=base-max";
      "parser: base-def=normal n0=wish-jump-join n100=base-max";
      "gap: base-def=normal n0=wish-jump-join n100=base-max";
      "vortex: base-def=normal wish-jump-join-loop=wish-jump-join n0=wish-jump-join n100=base-max";
      "bzip2: base-max=base-def n0=wish-jump-join n100=base-def";
      "twolf: wish-jump-join-loop=wish-jump-join n0=wish-jump-join n100=base-max";
    ]
    (List.map row Wish_workloads.Workloads.names)

let () =
  Alcotest.run "wish_compiler"
    [
      ( "handwritten",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "if/else both paths" `Quick test_if_else_both_paths;
          Alcotest.test_case "nested if predication" `Quick test_nested_if_predication;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "zero-trip while" `Quick test_zero_trip_while;
          Alcotest.test_case "and loop conditions" `Quick test_and_loop_conditions;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "spilled variables" `Quick test_spilled_variables;
          Alcotest.test_case "profile changes base-def" `Quick test_profile_changes_base_def;
          Alcotest.test_case "wish branch emission" `Quick test_wish_binary_contains_wish_branches;
          Alcotest.test_case "wish kinds ignore the profile" `Quick test_wish_kinds_ignore_profile;
          Alcotest.test_case "call blocks conversion" `Quick test_codegen_rejects_call_in_region;
          Alcotest.test_case "undefined function" `Quick test_undefined_function;
        ] );
      ( "policy",
        [
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "kind matrix" `Quick test_policy_kind_matrix;
          Alcotest.test_case "loop policy" `Quick test_loop_policy;
        ] );
      ( "property",
        [ qtest prop_five_binaries_equivalent; qtest prop_branch_numbering_stable ] );
      ("identity", [ Alcotest.test_case "scale-1 twin table" `Quick test_twin_table ]);
    ]
