(** Guard-context lowering from Kernel to WISC.

    Every lowering function takes the current guard predicate. If-conversion
    is performed structurally: predicating an [If] lowers both arms under
    the two destination predicates of the condition compare (using
    [cmp.unc] when already inside a region so that nested predicates are
    cleared when the outer guard is false). Wish jump/join and wish loop
    generation follow Figures 3c, 4b and 5b of the paper.

    Register conventions: r0 = zero, r2 = codegen scratch, r3..r51 program
    variables (spilled to the top of data memory when exhausted),
    r52..r63 expression temporaries. Predicates are allocated by region
    nesting depth starting at p1. *)

open Wish_isa

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let temp_base = 52
let temp_count = Reg.int_reg_count - temp_base
let var_base = Reg.first_alloc
let var_limit = temp_base

(** Words at the top of data memory reserved for spilled variables. *)
let spill_reserve = 1024

type var_loc = In_reg of Reg.ireg | In_mem of int

(** Branch-construct to emitted-branch mapping: (pc, construct id,
    taken-means-condition-true). *)
type branch_map = (int * int * bool) list

type t = {
  policy : Policy.t;
  mem_words : int;
  mutable items_rev : Asm.item list;
  mutable pc : int;
  mutable label_counter : int;
  mutable branch_counter : int;
  vars : (string, var_loc) Hashtbl.t;
  mutable next_var_reg : int;
  mutable next_spill : int;
  temp_avail : int Queue.t;
  mutable temp_ring : int;
  mutable pred_next : int;
  mutable branch_map : branch_map;
}

let create ~policy ~mem_words =
  {
    policy;
    mem_words;
    items_rev = [];
    pc = 0;
    label_counter = 0;
    branch_counter = 0;
    vars = Hashtbl.create 64;
    next_var_reg = var_base;
    next_spill = mem_words - 1;
    temp_avail = Queue.create ();
    temp_ring = 0;
    pred_next = Reg.first_alloc_pred;
    branch_map = [];
  }

let emit b item =
  b.items_rev <- item :: b.items_rev;
  b.pc <- b.pc + 1

let emit_label b name =
  b.items_rev <- Asm.label name :: b.items_rev

let fresh_label b prefix =
  let n = b.label_counter in
  b.label_counter <- n + 1;
  Printf.sprintf "%s_%d" prefix n

let next_branch_id b =
  let n = b.branch_counter in
  b.branch_counter <- n + 1;
  n

let record_branch b ~id ~taken_means_true =
  b.branch_map <- (b.pc, id, taken_means_true) :: b.branch_map

(* Variables ---------------------------------------------------------- *)

let var_loc b name =
  match Hashtbl.find_opt b.vars name with
  | Some l -> l
  | None ->
    let l =
      if b.next_var_reg < var_limit then begin
        let r = b.next_var_reg in
        b.next_var_reg <- r + 1;
        In_reg r
      end
      else begin
        let a = b.next_spill in
        if a < b.mem_words - spill_reserve then error "too many spilled variables";
        b.next_spill <- a - 1;
        In_mem a
      end
    in
    Hashtbl.add b.vars name l;
    l

(* Temporaries: a rotating free list. Allocation takes the least recently
   freed register, maximizing reuse distance so consecutive predicated
   instructions do not serialize on the C-style old-destination value of a
   hot register (a real register allocator rotates names the same way).
   Temps never live across statements; [reset_temps] refills the free list
   at each statement boundary, continuing the rotation. *)

let alloc_temp b =
  match Queue.take_opt b.temp_avail with
  | None -> error "expression too deep (out of temporaries)"
  | Some r ->
    b.temp_ring <- (r - temp_base + 1) mod temp_count;
    r

let free_operand b = function
  | Inst.Reg r when r >= temp_base -> Queue.push r b.temp_avail
  | Inst.Reg _ | Inst.Imm _ -> ()

let reset_temps b =
  Queue.clear b.temp_avail;
  for k = 0 to temp_count - 1 do
    Queue.push (temp_base + ((b.temp_ring + k) mod temp_count)) b.temp_avail
  done

(* Predicates --------------------------------------------------------- *)

let alloc_pred_pair b =
  if b.pred_next + 1 >= Reg.pred_reg_count then error "predicate nesting too deep";
  let pt = b.pred_next and pf = b.pred_next + 1 in
  b.pred_next <- b.pred_next + 2;
  (pt, pf)

let release_pred_pair b (pt, _pf) =
  assert (b.pred_next = pt + 2);
  b.pred_next <- pt

(* Expressions -------------------------------------------------------- *)

let alu_of = function
  | Ast.Add -> Inst.Add
  | Ast.Sub -> Inst.Sub
  | Ast.Mul -> Inst.Mul
  | Ast.And -> Inst.And
  | Ast.Or -> Inst.Or
  | Ast.Xor -> Inst.Xor
  | Ast.Shl -> Inst.Shl
  | Ast.Shr -> Inst.Shr

let cmp_of = function
  | Ast.Eq -> Inst.Eq
  | Ast.Ne -> Inst.Ne
  | Ast.Lt -> Inst.Lt
  | Ast.Le -> Inst.Le
  | Ast.Gt -> Inst.Gt
  | Ast.Ge -> Inst.Ge

let eval_binop op a b =
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.And -> a land b
  | Ast.Or -> a lor b
  | Ast.Xor -> a lxor b
  | Ast.Shl -> a lsl (b land 63)
  | Ast.Shr -> a asr (b land 63)

let commutative = function
  | Ast.Add | Ast.Mul | Ast.And | Ast.Or | Ast.Xor -> true
  | Ast.Sub | Ast.Shl | Ast.Shr -> false

(* Expression code inside a predicated region is control-speculated, as an
   aggressive if-converter would emit it: pure computations into dead
   temporaries drop their guard (and carry the [spec] mark so hardware may
   jump over them), while loads stay guarded — the paper's configuration
   disables speculative loads — and get a speculated clear of their
   destination first, so the C-style old-destination operand never chains
   across region instances.

   [into] targets the outermost result at a specific register (the
   assignment destination), avoiding a copy; recursive calls never pass it
   and it is only legal outside predicated regions. *)
let rec eval ?into b ~guard (e : Ast.expr) : Inst.operand =
  let spec = guard <> Reg.p0 in
  assert (not (spec && into <> None));
  let result_reg () = match into with Some r -> r | None -> alloc_temp b in
  match e with
  | Ast.Int n -> Inst.Imm n
  | Ast.Var v -> (
    match var_loc b v with
    | In_reg r -> Inst.Reg r
    | In_mem a ->
      let t = alloc_temp b in
      if spec then emit b (Asm.movi ~spec t 0);
      emit b (Asm.load ~guard t Reg.r0 a);
      Inst.Reg t)
  | Ast.Binop (op, Ast.Int x, Ast.Int y) -> Inst.Imm (eval_binop op x y)
  | Ast.Binop (op, ea, eb) ->
    let ea, eb =
      (* Keep immediates on the right when the operator allows it. *)
      match (ea, eb) with
      | Ast.Int _, _ when commutative op -> (eb, ea)
      | _ -> (ea, eb)
    in
    let va = eval b ~guard ea in
    let ra = force_reg b ~guard va in
    let vb = eval b ~guard eb in
    free_operand b vb;
    free_operand b (Inst.Reg ra);
    let dst = result_reg () in
    emit b (Asm.alu ~guard:(if spec then Reg.p0 else guard) ~spec (alu_of op) dst ra vb);
    Inst.Reg dst
  | Ast.Cmp (op, ea, eb) ->
    (* Materialize a 0/1 value through a predicate pair. The pair is dead
       outside this expression, so inside a region the compare and the
       value-setting moves are all speculated. *)
    let va = eval b ~guard ea in
    let ra = force_reg b ~guard va in
    let vb = eval b ~guard eb in
    let ((pt, pf) as pair) = alloc_pred_pair b in
    emit b
      (Asm.cmp
         ~guard:(if spec then Reg.p0 else guard)
         ~spec ~unc:false (cmp_of op) ~dst_false:pf pt ra vb);
    free_operand b vb;
    free_operand b (Inst.Reg ra);
    let dst = result_reg () in
    emit b (Asm.movi ~guard:pt ~spec dst 1);
    emit b (Asm.movi ~guard:pf ~spec dst 0);
    release_pred_pair b pair;
    Inst.Reg dst
  | Ast.Load ea ->
    let va = eval b ~guard ea in
    let ra = force_reg b ~guard va in
    free_operand b (Inst.Reg ra);
    let dst = result_reg () in
    if spec then emit b (Asm.movi ~spec dst 0);
    emit b (Asm.load ~guard dst ra 0);
    Inst.Reg dst

and force_reg b ~guard = function
  | Inst.Reg r -> r
  | Inst.Imm n ->
    let t = alloc_temp b in
    emit b (Asm.movi ~guard:Reg.p0 ~spec:(guard <> Reg.p0) t n);
    t

(* Whether [e] is a comparison or an [And] of them: a 0/1 value, so
   [(a <> 0) && (b <> 0)] equals [(a land b) <> 0] for its operands. *)
let rec is_boolean = function
  | Ast.Cmp _ -> true
  | Ast.Binop (Ast.And, a, b) -> is_boolean a && is_boolean b
  | _ -> false

(** Evaluate a condition directly into a fresh predicate pair.

    An [And] of comparisons whose complement is not needed (loop
    conditions: the branch tests only [pt]) compiles to IA-64-style
    chained guarded compares — [cmp pt = a; (pt) cmp.unc pt = b] —
    instead of materializing booleans. Any other [And] is the bitwise
    [(a land b) <> 0] every lowering tests. *)
let rec emit_condition b ~guard ~unc ?dst_false cond pt =
  match cond with
  | Ast.Cmp (op, ea, eb) ->
    let va = eval b ~guard ea in
    let ra = force_reg b ~guard va in
    let vb = eval b ~guard eb in
    emit b (Asm.cmp ~guard ~unc (cmp_of op) ?dst_false pt ra vb);
    free_operand b vb;
    free_operand b (Inst.Reg ra)
  | Ast.Binop (Ast.And, ca, cb) when dst_false = None && is_boolean cond ->
    emit_condition b ~guard ~unc ca pt;
    emit_condition b ~guard:pt ~unc:true cb pt
  | _ ->
    let v = eval b ~guard cond in
    let r = force_reg b ~guard v in
    emit b (Asm.cmp ~guard ~unc Inst.Ne ?dst_false pt r (Inst.Imm 0));
    free_operand b (Inst.Reg r)

(* Statements --------------------------------------------------------- *)

let rec lower_stmt b ~guard (s : Ast.stmt) =
  reset_temps b;
  (match s with
  | Ast.Assign (v, e) -> (
    match var_loc b v with
    | In_reg r when guard <> Reg.p0 -> (
      (* Inside a region: speculate subexpressions, but keep exactly one
         guarded operation writing the variable, so region arms add one
         cycle — not two — to the variable's dependence chain. *)
      match e with
      | Ast.Binop (op, ea, eb) when not (match (ea, eb) with Ast.Int _, Ast.Int _ -> true | _ -> false) ->
        let ea, eb =
          match (ea, eb) with
          | Ast.Int _, _ when commutative op -> (eb, ea)
          | _ -> (ea, eb)
        in
        let va = eval b ~guard ea in
        let ra = force_reg b ~guard va in
        let vb = eval b ~guard eb in
        emit b (Asm.alu ~guard (alu_of op) r ra vb)
      | Ast.Load ea ->
        let va = eval b ~guard ea in
        let ra = force_reg b ~guard va in
        emit b (Asm.load ~guard r ra 0)
      | _ -> (
        match eval b ~guard e with
        | Inst.Imm n -> emit b (Asm.movi ~guard r n)
        | Inst.Reg s when s = r -> ()
        | Inst.Reg s -> emit b (Asm.mov ~guard r s)))
    | In_reg r -> (
      match eval ~into:r b ~guard e with
      | Inst.Imm n -> emit b (Asm.movi ~guard r n)
      | Inst.Reg s when s = r -> ()
      | Inst.Reg s -> emit b (Asm.mov ~guard r s))
    | In_mem a ->
      let v = eval b ~guard e in
      let r = force_reg b ~guard v in
      emit b (Asm.store ~guard r Reg.r0 a))
  | Ast.Store (ea, ev) ->
    let va = eval b ~guard ea in
    let ra = force_reg b ~guard va in
    let vv = eval b ~guard ev in
    let rv = force_reg b ~guard vv in
    emit b (Asm.store ~guard rv ra 0)
  | Ast.If (cond, then_b, else_b) -> lower_if b ~guard cond then_b else_b
  | Ast.While (cond, body) -> lower_while b ~guard cond body
  | Ast.Do_while (body, cond) -> lower_do_while b ~guard body cond
  | Ast.For (v, e_init, e_limit, body) ->
    (* Desugar: v = init; while (v < limit) { body; v = v + 1 } — consumes
       exactly one branch id (the While), deterministically. *)
    lower_stmt b ~guard (Ast.Assign (v, e_init));
    lower_stmt b ~guard
      (Ast.While
         ( Ast.Cmp (Ast.Lt, Ast.Var v, e_limit),
           body @ [ Ast.Assign (v, Ast.Binop (Ast.Add, Ast.Var v, Ast.Int 1)) ] ))
  | Ast.Call f ->
    if guard <> Reg.p0 then error "call inside a predicated region";
    emit b (Asm.call ("fn_" ^ f)));
  reset_temps b

and lower_block b ~guard block = List.iter (lower_stmt b ~guard) block

and lower_if b ~guard cond then_b else_b =
  let id = next_branch_id b in
  let convertible = Ast.is_convertible then_b && Ast.is_convertible else_b in
  let tsz = Ast.block_size then_b and esz = Ast.block_size else_b in
  let decision =
    if guard <> Reg.p0 then begin
      (* Inside a predicated region: the enclosing decision already proved
         the whole subtree convertible. *)
      if not convertible then error "unconvertible If inside predicated region";
      Policy.Predicate
    end
    else
      Policy.decide_if b.policy ~id ~convertible ~then_size:tsz ~else_size:esz
        ~jumped_over_size:(if else_b = [] then tsz else esz)
  in
  match decision with
  | Policy.Predicate ->
    let ((pt, pf) as pair) = alloc_pred_pair b in
    emit_condition b ~guard ~unc:(guard <> Reg.p0) ~dst_false:pf cond pt;
    lower_block b ~guard:pt then_b;
    lower_block b ~guard:pf else_b;
    release_pred_pair b pair
  | Policy.Keep_branch ->
    let ((pt, pf) as pair) = alloc_pred_pair b in
    emit_condition b ~guard ~unc:(guard <> Reg.p0) ~dst_false:pf cond pt;
    if else_b = [] then begin
      let join = fresh_label b "join" in
      record_branch b ~id ~taken_means_true:false;
      emit b (Asm.br ~guard:pf join);
      release_pred_pair b pair;
      lower_block b ~guard then_b;
      emit_label b join
    end
    else begin
      let lelse = fresh_label b "else" and join = fresh_label b "join" in
      record_branch b ~id ~taken_means_true:false;
      emit b (Asm.br ~guard:pf lelse);
      release_pred_pair b pair;
      lower_block b ~guard then_b;
      emit b (Asm.jmp join);
      emit_label b lelse;
      lower_block b ~guard else_b;
      emit_label b join
    end
  | Policy.Wish_jump_join ->
    let ((pt, pf) as pair) = alloc_pred_pair b in
    emit_condition b ~guard:Reg.p0 ~unc:false ~dst_false:pf cond pt;
    (if else_b = [] then begin
       (* Triangle (Figure 3c without block B): jump over the predicated
          then-side when the condition is false. *)
       let join = fresh_label b "wjoin" in
       record_branch b ~id ~taken_means_true:false;
       emit b (Asm.wish_jump ~guard:pf join);
       lower_block b ~guard:pt then_b;
       emit_label b join
     end
     else begin
       (* Diamond (Figure 3c): wish jump to the then-side; fall through the
          predicated else-side; wish join over the then-side. *)
       let lthen = fresh_label b "wthen" and join = fresh_label b "wjoin" in
       record_branch b ~id ~taken_means_true:true;
       emit b (Asm.wish_jump ~guard:pt lthen);
       lower_block b ~guard:pf else_b;
       emit b (Asm.wish_join ~guard:pf join);
       emit_label b lthen;
       lower_block b ~guard:pt then_b;
       emit_label b join
     end);
    release_pred_pair b pair

and lower_while b ~guard cond body =
  let id = next_branch_id b in
  if guard <> Reg.p0 then error "loop inside a predicated region";
  match
    Policy.decide_loop b.policy ~id ~body_straight:(Ast.is_straight_line body)
      ~body_size:(Ast.block_size body)
  with
  | Policy.Wish_loop ->
    (* Figure 5b: p = cond; LOOP: (p) body; (p) p = cond; wish.loop p. *)
    let ((pt, _) as pair) = alloc_pred_pair b in
    let loop = fresh_label b "wloop" in
    emit_condition b ~guard:Reg.p0 ~unc:false cond pt;
    emit_label b loop;
    lower_block b ~guard:pt body;
    emit_condition b ~guard:pt ~unc:false cond pt;
    record_branch b ~id ~taken_means_true:true;
    emit b (Asm.wish_loop ~guard:pt loop);
    release_pred_pair b pair
  | Policy.Keep_loop ->
    (* Rotated loop: bottom-tested, friendlier to the branch predictor. *)
    let test = fresh_label b "test" and loop = fresh_label b "loop" in
    emit b (Asm.jmp test);
    emit_label b loop;
    lower_block b ~guard body;
    emit_label b test;
    let ((pt, pf) as pair) = alloc_pred_pair b in
    emit_condition b ~guard ~unc:false ~dst_false:pf cond pt;
    record_branch b ~id ~taken_means_true:true;
    emit b (Asm.br ~guard:pt loop);
    release_pred_pair b pair

and lower_do_while b ~guard body cond =
  let id = next_branch_id b in
  if guard <> Reg.p0 then error "loop inside a predicated region";
  match
    Policy.decide_loop b.policy ~id ~body_straight:(Ast.is_straight_line body)
      ~body_size:(Ast.block_size body)
  with
  | Policy.Wish_loop ->
    (* Figure 4b: p = 1; LOOP: (p) body; (p) p = cond; wish.loop p. *)
    let ((pt, _) as pair) = alloc_pred_pair b in
    let loop = fresh_label b "wloop" in
    emit b (Asm.pset pt true);
    emit_label b loop;
    lower_block b ~guard:pt body;
    emit_condition b ~guard:pt ~unc:false cond pt;
    record_branch b ~id ~taken_means_true:true;
    emit b (Asm.wish_loop ~guard:pt loop);
    release_pred_pair b pair
  | Policy.Keep_loop ->
    let loop = fresh_label b "loop" in
    emit_label b loop;
    lower_block b ~guard body;
    let ((pt, pf) as pair) = alloc_pred_pair b in
    emit_condition b ~guard ~unc:false ~dst_false:pf cond pt;
    record_branch b ~id ~taken_means_true:true;
    emit b (Asm.br ~guard:pt loop);
    release_pred_pair b pair

(* Programs ----------------------------------------------------------- *)

(** [compile ~policy ~mem_words ~name program] lowers a Kernel program to a
    WISC binary. Returns the program and the branch map used to attribute
    emulator profiles back to AST constructs. *)
let compile ?(mem_words = Program.default_mem_words) ~policy ~name (prog : Ast.program) =
  let b = create ~policy ~mem_words in
  (* Check call targets up front. *)
  let declared = List.map fst prog.funcs in
  let rec check_calls block =
    List.iter
      (function
        | Ast.Call f when not (List.mem f declared) -> error "call to undefined function %s" f
        | Ast.If (_, x, y) ->
          check_calls x;
          check_calls y
        | Ast.While (_, x) | Ast.Do_while (x, _) | Ast.For (_, _, _, x) -> check_calls x
        | Ast.Call _ | Ast.Assign _ | Ast.Store _ -> ())
      block
  in
  check_calls prog.main;
  List.iter (fun (_, body) -> check_calls body) prog.funcs;
  lower_block b ~guard:Reg.p0 prog.main;
  emit b Asm.halt;
  List.iter
    (fun (fname, body) ->
      emit_label b ("fn_" ^ fname);
      lower_block b ~guard:Reg.p0 body;
      emit b (Asm.ret ()))
    prog.funcs;
  let code = Asm.assemble (List.rev b.items_rev) in
  (Program.create ~name ~mem_words code, b.branch_map)
