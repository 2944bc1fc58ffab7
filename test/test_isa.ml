(* Tests for the WISC ISA: registers, instruction accessors, the assembler
   and code-image validation. *)

open Wish_isa

let check = Alcotest.check

(* Registers ----------------------------------------------------------- *)

let test_reg_validation () =
  check Alcotest.int "ireg ok" 5 (Reg.ireg 5);
  check Alcotest.int "preg ok" 63 (Reg.preg 63);
  Alcotest.check_raises "ireg too big" (Invalid_argument "Reg.ireg") (fun () ->
      ignore (Reg.ireg 64));
  Alcotest.check_raises "preg negative" (Invalid_argument "Reg.preg") (fun () ->
      ignore (Reg.preg (-1)));
  Alcotest.(check bool) "valid" true (Reg.is_valid_ireg 0);
  Alcotest.(check bool) "invalid" false (Reg.is_valid_preg 64)

(* Instruction accessors ------------------------------------------------ *)

let alu dst s1 s2 = Inst.make (Inst.Alu { op = Inst.Add; dst; src1 = s1; src2 = s2 })

let test_int_dest () =
  check Alcotest.(option int) "alu dest" (Some 5) (Inst.int_dest (alu 5 1 (Inst.Imm 0)));
  check Alcotest.(option int) "write to r0 discarded" None (Inst.int_dest (alu 0 1 (Inst.Imm 0)));
  check Alcotest.(option int) "store has no dest" None
    (Inst.int_dest (Inst.make (Inst.Store { src = 1; base = 2; offset = 0 })))

let test_int_srcs () =
  check Alcotest.(list int) "alu srcs" [ 1; 2 ] (Inst.int_srcs (alu 5 1 (Inst.Reg 2)));
  check Alcotest.(list int) "r0 not a source" [] (Inst.int_srcs (alu 5 0 (Inst.Imm 3)));
  check Alcotest.(list int) "store srcs" [ 4; 7 ]
    (Inst.int_srcs (Inst.make (Inst.Store { src = 4; base = 7; offset = 1 })))

let test_pred_dests () =
  let cmp =
    Inst.make
      (Inst.Cmp
         { op = Inst.Lt; dst_true = 1; dst_false = Some 2; src1 = 3; src2 = Inst.Imm 0; unc = false })
  in
  check Alcotest.(list int) "both pred dests" [ 1; 2 ] (Inst.pred_dests cmp);
  let pset0 = Inst.make (Inst.Pset { dst = 0; value = true }) in
  check Alcotest.(list int) "p0 write discarded" [] (Inst.pred_dests pset0)

let test_guard_is_pred_src () =
  let i = Inst.make ~guard:3 Inst.Nop in
  check Alcotest.(list int) "guard source" [ 3 ] (Inst.pred_srcs i);
  check Alcotest.(list int) "p0 guard free" [] (Inst.pred_srcs (Inst.make Inst.Nop))

let test_branch_kinds () =
  let wj = Inst.make (Inst.Branch { kind = Inst.Wish_jump; target = 0 }) in
  Alcotest.(check bool) "is branch" true (Inst.is_branch wj);
  Alcotest.(check bool) "is conditional" true (Inst.is_conditional wj);
  Alcotest.(check bool) "is wish" true (Inst.is_wish wj);
  let jmp = Inst.make (Inst.Jump { target = 0 }) in
  Alcotest.(check bool) "jump is branch" true (Inst.is_branch jmp);
  Alcotest.(check bool) "jump not conditional" false (Inst.is_conditional jmp);
  check Alcotest.(option int) "target" (Some 0) (Inst.direct_target wj);
  check Alcotest.(option int) "return has no static target" None
    (Inst.direct_target (Inst.make Inst.Return))

let test_pretty_printing () =
  let i = Inst.make ~guard:2 (Inst.Alu { op = Inst.Add; dst = 3; src1 = 4; src2 = Inst.Imm 7 }) in
  check Alcotest.string "guarded alu" "(p2) add r3, r4, #7" (Inst.to_string i);
  let s = Inst.make ~spec:true (Inst.Load { dst = 1; base = 2; offset = 3 }) in
  check Alcotest.string "spec load" "s.ld r1, [r2+3]" (Inst.to_string s)

(* Assembler ------------------------------------------------------------ *)

let test_asm_labels_resolve () =
  let code =
    Asm.(assemble [ label "top"; movi 3 1; br ~guard:1 "top"; jmp "end"; label "end"; halt ])
  in
  check Alcotest.int "length" 4 (Code.length code);
  check Alcotest.(option int) "backward target" (Some 0) (Inst.direct_target (Code.get code 1));
  check Alcotest.(option int) "forward target" (Some 3) (Inst.direct_target (Code.get code 2))

let test_asm_undefined_label () =
  Alcotest.check_raises "undefined" (Asm.Undefined_label "nowhere") (fun () ->
      ignore Asm.(assemble [ jmp "nowhere"; halt ]))

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      ignore Asm.(assemble [ label "x"; nop; label "x"; halt ]))

(* Code validation -------------------------------------------------------- *)

let test_code_requires_terminator () =
  Alcotest.(check bool) "halt ok" true (match Asm.(assemble [ halt ]) with _ -> true);
  Alcotest.check_raises "fallthrough end rejected"
    (Code.Invalid "last instruction must be halt, ret, or an unguarded jmp") (fun () ->
      ignore (Code.create [| Inst.make Inst.Nop |]))

let test_code_rejects_empty () =
  Alcotest.check_raises "empty" (Code.Invalid "empty code image") (fun () ->
      ignore (Code.create [||]))

let test_code_rejects_bad_target () =
  Alcotest.check_raises "target out of range" (Code.Invalid "pc 0: branch target 9 out of range")
    (fun () ->
      ignore
        (Code.create
           [| Inst.make (Inst.Branch { kind = Inst.Cond; target = 9 }); Inst.make Inst.Halt |]))

let test_code_static_counts () =
  let code =
    Asm.(
      assemble
        [
          cmp Inst.Lt ~dst_false:2 1 3 (Inst.Imm 5);
          wish_jump ~guard:1 "a";
          wish_join ~guard:2 "a";
          label "a";
          wish_loop ~guard:1 "a";
          br ~guard:1 "a";
          halt;
        ])
  in
  check Alcotest.int "conditional branches" 4 (Code.static_conditional_branches code);
  check Alcotest.int "wish branches" 3 (Code.static_wish_branches code);
  check Alcotest.int "wish loops" 1 (Code.static_wish_loops code)

let test_byte_pc () = check Alcotest.int "4 bytes per inst" 40 (Code.byte_pc 10)

(* Programs --------------------------------------------------------------- *)

let seg base words = { Program.base; words }

(* Segments as comparable (base, words) pairs. *)
let segments = Alcotest.(list (pair int (array int)))
let seg_view (d : Program.segment list) =
  List.map (fun (s : Program.segment) -> (s.base, s.words)) d

let test_program_validation () =
  let code = Asm.(assemble [ halt ]) in
  let p = Program.create ~name:"t" ~data:[ seg 5 [| 42 |] ] ~mem_words:64 code in
  check Alcotest.string "name" "t" (Program.name p);
  let out_of_range data =
    Alcotest.check_raises "data out of range"
      (Invalid_argument "Program.create: data out of range") (fun () ->
        ignore (Program.create ~data ~mem_words:64 code))
  in
  out_of_range [ seg 64 [| 1 |] ];
  out_of_range [ seg (-1) [| 1 |] ];
  (* A segment that starts in range must also end there. *)
  out_of_range [ seg 5 [| 1 |]; seg 60 (Array.make 5 1) ];
  let full = Program.create ~data:[ seg 60 (Array.make 4 1) ] ~mem_words:64 code in
  check segments "ends exactly at mem_words" [ (60, [| 1; 1; 1; 1 |]) ] (seg_view full.data);
  Alcotest.check_raises "bad entry" (Invalid_argument "Program.create: bad entry") (fun () ->
      ignore (Program.create ~entry:5 ~mem_words:64 code))

let test_program_with_data () =
  let code = Asm.(assemble [ halt ]) in
  let p = Program.create ~mem_words:64 code in
  let p2 = Program.with_data p [ seg 3 [| 9 |] ] in
  check segments "data rebound" [ (3, [| 9 |]) ] (seg_view p2.data);
  let rejects data =
    Alcotest.check_raises "with_data validates"
      (Invalid_argument "Program.with_data: out of range") (fun () ->
        ignore (Program.with_data p data))
  in
  rejects [ seg 100 [| 1 |] ];
  rejects [ seg 62 [| 1; 2; 3 |] ];
  let p3 = Program.with_data p [ seg 61 [| 1; 2; 3 |] ] in
  check segments "ends exactly at mem_words" [ (61, [| 1; 2; 3 |]) ] (seg_view p3.data)

(* Runs of consecutive addresses merge; a gap or a repeated address
   starts a new segment, so the order (and the last write) is kept. *)
let test_segments_of_pairs () =
  check segments "empty" [] (seg_view (Program.segments_of_pairs []));
  check segments "runs split at gaps and repeats"
    [ (3, [| 1; 2 |]); (10, [| 5 |]); (4, [| 7; 8 |]) ]
    (seg_view (Program.segments_of_pairs [ (3, 1); (4, 2); (10, 5); (4, 7); (5, 8) ]));
  let p =
    Program.create ~mem_words:16
      ~data:(Program.segments_of_pairs [ (3, 1); (4, 2); (10, 5); (4, 7) ])
      Asm.(assemble [ halt ])
  in
  let m = Wish_emu.Memory.of_program p in
  check Alcotest.(list int) "later pairs win" [ 1; 7; 5 ]
    (List.map (Wish_emu.Memory.read m) [ 3; 4; 10 ])

(* Assembly text parser --------------------------------------------------- *)

let test_parse_basic_program () =
  let p =
    Parse.program_of_string
      {|
; a comment
.mem 256
.data 10 42
start:
    add r3, r0, #0
loop:
    (p1) s.mul r4, r3, #3
    cmp.lt p1, p2 = r3, #10
    cmp.unc.eq p2 = r3, r4
    ld r7, [r6+4]
    st [r6+0], r7
    pset p1, true
    wish.loop loop
    br start
    jmp @0
    halt
|}
  in
  check Alcotest.int "instruction count" 11 (Code.length p.code);
  check Alcotest.int "mem size" 256 p.mem_words;
  check segments "data" [ (10, [| 42 |]) ] (seg_view p.data);
  let i1 = Code.get p.code 1 in
  check Alcotest.int "guard parsed" 1 i1.Inst.guard;
  Alcotest.(check bool) "spec parsed" true i1.Inst.spec;
  (match (Code.get p.code 3).Inst.op with
  | Inst.Cmp { unc = true; dst_false = None; _ } -> ()
  | _ -> Alcotest.fail "cmp.unc parsed wrong");
  check Alcotest.(option int) "label target" (Some 1) (Inst.direct_target (Code.get p.code 7));
  check Alcotest.(option int) "numeric target" (Some 0) (Inst.direct_target (Code.get p.code 9))

let test_parse_errors () =
  let expect_error_line n text =
    match Parse.program_of_string text with
    | exception Parse.Parse_error { line; _ } -> check Alcotest.int "error line" n line
    | _ -> Alcotest.fail "expected parse error"
  in
  expect_error_line 1 "bogus r1, r2
halt";
  expect_error_line 2 "halt
add r99, r0, #1
halt";
  expect_error_line 1 "ld r1, r2
halt";
  expect_error_line 1 ".mem zero
halt"

(* [.data] lines become segments and print back one line per word, in
   the order written, gaps and repeats included. *)
let test_parse_data_roundtrip () =
  let text = ".mem 64\n.data 5 1\n.data 6 2\n.data 9 3\n.data 5 4\nhalt\n" in
  let p = Parse.program_of_string text in
  check segments "segments" [ (5, [| 1; 2 |]); (9, [| 3 |]); (5, [| 4 |]) ] (seg_view p.data);
  check Alcotest.string "listing" text (Parse.listing_of_program p)

let test_parse_roundtrip_compiled_binaries () =
  (* The printer's listing must parse back to the identical code image —
     for every binary flavour of a real workload. *)
  let b = Wish_workloads.Workloads.find ~scale:1 "gzip" in
  let bins =
    Wish_compiler.Compiler.compile_all ~mem_words:b.mem_words ~name:b.name
      ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast
  in
  List.iter
    (fun kind ->
      let code = Program.code (Wish_compiler.Compiler.binary bins kind) in
      let text = Parse.listing_of_code code in
      let reparsed = (Parse.program_of_string text).code in
      check Alcotest.int
        (Wish_compiler.Policy.kind_name kind ^ " same length")
        (Code.length code) (Code.length reparsed);
      Code.iteri code (fun pc i ->
          Alcotest.(check bool)
            (Printf.sprintf "%s pc %d equal" (Wish_compiler.Policy.kind_name kind) pc)
            true
            (Inst.equal i (Code.get reparsed pc))))
    Wish_compiler.Compiler.all_kinds

let qtest t = QCheck_alcotest.to_alcotest ~speed_level:`Quick t

(* Random valid instructions: print a code image, parse it back, compare. *)
let gen_inst_list =
  let open QCheck.Gen in
  let ireg = int_range 0 63 in
  let preg = int_range 0 63 in
  let operand = oneof [ map (fun r -> Inst.Reg r) ireg; map (fun n -> Inst.Imm n) (int_range (-99) 99) ] in
  let aluop = oneofl [ Inst.Add; Inst.Sub; Inst.Mul; Inst.And; Inst.Or; Inst.Xor; Inst.Shl; Inst.Shr ] in
  let cmpop = oneofl [ Inst.Eq; Inst.Ne; Inst.Lt; Inst.Le; Inst.Gt; Inst.Ge ] in
  let plain n =
    oneof
      [
        map2 (fun (op, dst) (s1, s2) -> Inst.Alu { op; dst; src1 = s1; src2 = s2 })
          (pair aluop ireg) (pair ireg operand);
        map3
          (fun (op, unc) (dt, df) (s1, s2) ->
            Inst.Cmp { op; dst_true = dt; dst_false = df; src1 = s1; src2 = s2; unc })
          (pair cmpop bool)
          (pair preg (opt preg))
          (pair ireg operand);
        map2 (fun dst value -> Inst.Pset { dst; value }) preg bool;
        map3 (fun dst base offset -> Inst.Load { dst; base; offset }) ireg ireg (int_range 0 64);
        map3 (fun src base offset -> Inst.Store { src; base; offset }) ireg ireg (int_range 0 64);
        map (fun target -> Inst.Branch { kind = Inst.Cond; target }) (int_range 0 n);
        map (fun target -> Inst.Branch { kind = Inst.Wish_jump; target }) (int_range 0 n);
        map (fun target -> Inst.Branch { kind = Inst.Wish_loop; target }) (int_range 0 n);
        map (fun target -> Inst.Jump { target }) (int_range 0 n);
      ]
  in
  let* n = int_range 1 20 in
  let* ops = list_repeat n (plain n) in
  let* guards = list_repeat n (int_range 0 3) in
  let* specs = list_repeat n bool in
  let insts =
    List.map2
      (fun op (guard, spec) ->
        (* spec only decorates non-branches, as the compiler emits it. *)
        let i0 = Inst.make op in
        let spec = spec && (not (Inst.is_branch i0)) && not (Inst.writes_memory i0) in
        Inst.make ~guard ~spec op)
      ops (List.combine guards specs)
  in
  return (insts @ [ Inst.make Inst.Halt ])

let prop_parse_roundtrip_random =
  QCheck.Test.make ~name:"random listings round-trip" ~count:200
    (QCheck.make ~print:(fun insts -> String.concat "\n" (List.map Inst.to_string insts))
       gen_inst_list) (fun insts ->
      let code = Code.create (Array.of_list insts) in
      try
        let reparsed = (Parse.program_of_string (Parse.listing_of_code code)).code in
        Code.length code = Code.length reparsed
        &&
        let ok = ref true in
        Code.iteri code (fun pc i ->
            if not (Inst.equal i (Code.get reparsed pc)) then begin
              Printf.eprintf "MISMATCH pc %d: %s vs %s\n" pc (Inst.to_string i)
                (Inst.to_string (Code.get reparsed pc));
              ok := false
            end);
        !ok
      with e ->
        Printf.eprintf "EXN %s on:\n%s\n" (Printexc.to_string e) (Parse.listing_of_code code);
        false)

let test_parse_rejects_dangling_numeric_target () =
  match Parse.program_of_string "jmp @5
halt" with
  | exception Parse.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected error for target past the end"

let () =
  Alcotest.run "wish_isa"
    [
      ("reg", [ Alcotest.test_case "validation" `Quick test_reg_validation ]);
      ( "inst",
        [
          Alcotest.test_case "int dest" `Quick test_int_dest;
          Alcotest.test_case "int srcs" `Quick test_int_srcs;
          Alcotest.test_case "pred dests" `Quick test_pred_dests;
          Alcotest.test_case "guard as pred src" `Quick test_guard_is_pred_src;
          Alcotest.test_case "branch kinds" `Quick test_branch_kinds;
          Alcotest.test_case "pretty printing" `Quick test_pretty_printing;
        ] );
      ( "asm",
        [
          Alcotest.test_case "labels resolve" `Quick test_asm_labels_resolve;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
        ] );
      ( "code",
        [
          Alcotest.test_case "requires terminator" `Quick test_code_requires_terminator;
          Alcotest.test_case "rejects empty" `Quick test_code_rejects_empty;
          Alcotest.test_case "rejects bad target" `Quick test_code_rejects_bad_target;
          Alcotest.test_case "static counts" `Quick test_code_static_counts;
          Alcotest.test_case "byte pc" `Quick test_byte_pc;
        ] );
      ( "program",
        [
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "with_data" `Quick test_program_with_data;
          Alcotest.test_case "segments of pairs" `Quick test_segments_of_pairs;
        ] );
      ( "parse",
        [
          Alcotest.test_case "basic program" `Quick test_parse_basic_program;
          Alcotest.test_case "errors carry lines" `Quick test_parse_errors;
          Alcotest.test_case "data directives round-trip" `Quick test_parse_data_roundtrip;
          Alcotest.test_case "listings round-trip" `Quick test_parse_roundtrip_compiled_binaries;
          Alcotest.test_case "dangling numeric target" `Quick
            test_parse_rejects_dangling_numeric_target;
          qtest prop_parse_roundtrip_random;
        ] );
    ]
