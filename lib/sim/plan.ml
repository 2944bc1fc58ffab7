(** Per-pc µop templates for the compiled timing core.

    Every static fact the core needs about an instruction (exec class,
    branch kind, operand registers, predication shape, icache line, ...)
    is the same on every dynamic fetch, so a {!t} translates the whole
    code image once per (program, config)
    into flat struct-of-arrays templates with r0/p0 operands already
    elided and every config-dependent decision (mechanism, knobs, wish
    hardware) pre-folded, so the compiled per-cycle loop reads plain ints
    and never inspects a {!Wish_isa.Inst.t} again. The Figure 8 mode
    machine is not compiled here: the core calls
    {!Wish_fsm.on_wish_branch} with the branch kind this plan records. *)

open Wish_isa

(* Branch-kind codes. *)
let k_cond = 0

let k_wish_jump = 1
let k_wish_join = 2
let k_wish_loop = 3

let kind_code_of = function
  | Inst.Cond -> k_cond
  | Inst.Wish_jump -> k_wish_jump
  | Inst.Wish_join -> k_wish_join
  | Inst.Wish_loop -> k_wish_loop

(* Branch shapes: how the followed direction and architectural successor
   are formed. *)
let bs_cond = 0 (* Branch _: direction from the predictor *)

let bs_jump = 1
let bs_call = 2
let bs_return = 3

(* ----------------------------------------------------------------- *)
(* Per-pc templates                                                   *)
(* ----------------------------------------------------------------- *)

(* Fetch-path dispatch codes. *)
let t_nop = 0

let t_halt = 1
let t_branch = 2
let t_plain = 3

type t = {
  npcs : int;
  code : Code.t; (* the image these templates were compiled from *)
  insts : Inst.t array; (* for µop records and diagnostics *)
  tclass : int array; (* t_nop / t_halt / t_branch / t_plain *)
  exec_class : Uop.exec_class array;
  is_cond : bool array; (* direction-predicted (what the predictor sees) *)
  kind_code : int array; (* branch-kind code, or -1 *)
  kind_opt : Inst.branch_kind option array; (* preallocated for branch_rec; the FSM kind *)
  is_wish_hw : bool array; (* wish-annotated and wish hardware enabled *)
  bshape : int array; (* bs_* shape, or -1 for non-branches *)
  target : int array; (* static direct target, or -1 *)
  target_or_next : int array; (* target, defaulted to pc + 1 *)
  guard : int array;
  pdst1 : int array; (* predicate destinations (p0 elided), or -1 *)
  pdst2 : int array;
  cpair_t : int array; (* cmp complement pair (not p0-elided), or -1 *)
  cpair_f : int array;
  src1 : int array; (* integer sources (r0 elided), or -1 *)
  src2 : int array;
  idst : int array; (* integer destination (r0 elided), or -1 *)
  is_mem : bool array;
  sel_eligible : bool array; (* select-µop split candidate under Select_uop *)
  old_dest_single : bool array; (* static old-dest need, unsplit µop *)
  old_dest_select : bool; (* old-dest need of a select µop *)
  line : int array; (* icache line index of the pc *)
  byte_pc : int array;
  synth : int array; (* synthesized wrong-path data address *)
}

let build (config : Config.t) (program : Program.t) =
  let code = Program.code program in
  let npcs = Code.length code in
  let knobs = config.knobs in
  let insts = Array.init npcs (Code.get code) in
  let tclass = Array.make npcs t_plain in
  let exec_class = Array.make npcs Uop.Ec_nop in
  let is_cond = Array.make npcs false in
  let kind_code = Array.make npcs (-1) in
  let kind_opt = Array.make npcs None in
  let is_wish_hw = Array.make npcs false in
  let bshape = Array.make npcs (-1) in
  let target = Array.make npcs (-1) in
  let target_or_next = Array.make npcs 0 in
  let guard = Array.make npcs 0 in
  let pdst1 = Array.make npcs (-1) in
  let pdst2 = Array.make npcs (-1) in
  let cpair_t = Array.make npcs (-1) in
  let cpair_f = Array.make npcs (-1) in
  let src1 = Array.make npcs (-1) in
  let src2 = Array.make npcs (-1) in
  let idst = Array.make npcs (-1) in
  let is_mem = Array.make npcs false in
  let sel_eligible = Array.make npcs false in
  let old_dest_single = Array.make npcs false in
  let line = Array.make npcs 0 in
  let byte_pc = Array.make npcs 0 in
  let synth = Array.make npcs 0 in
  for pc = 0 to npcs - 1 do
    let inst = insts.(pc) in
    exec_class.(pc) <-
      (match inst.op with
      | Inst.Alu { op = Inst.Mul; _ } -> Uop.Ec_mul
      | Inst.Alu _ | Inst.Cmp _ | Inst.Pset _ -> Uop.Ec_alu
      | Inst.Load _ -> Uop.Ec_load
      | Inst.Store _ -> Uop.Ec_store
      | Inst.Branch _ | Inst.Jump _ | Inst.Call _ | Inst.Return | Inst.Halt -> Uop.Ec_ctrl
      | Inst.Nop -> Uop.Ec_nop);
    tclass.(pc) <-
      (match inst.op with
      | Inst.Nop -> t_nop
      | Inst.Halt -> t_halt
      | _ when Inst.is_branch inst -> t_branch
      | _ -> t_plain);
    is_cond.(pc) <- Inst.is_conditional inst;
    (match Inst.branch_kind inst with
    | Some k ->
      kind_code.(pc) <- kind_code_of k;
      kind_opt.(pc) <- Some k;
      is_wish_hw.(pc) <- (config.wish_hardware && k <> Inst.Cond)
    | None -> ());
    bshape.(pc) <-
      (match inst.op with
      | Inst.Branch _ -> bs_cond
      | Inst.Jump _ -> bs_jump
      | Inst.Call _ -> bs_call
      | Inst.Return -> bs_return
      | _ -> -1);
    (match Inst.direct_target inst with Some tg -> target.(pc) <- tg | None -> ());
    target_or_next.(pc) <- (if target.(pc) >= 0 then target.(pc) else pc + 1);
    guard.(pc) <- inst.guard;
    (match Inst.pred_dests inst with
    | [] -> ()
    | [ p ] -> pdst1.(pc) <- p
    | [ p; q ] ->
      pdst1.(pc) <- p;
      pdst2.(pc) <- q
    | _ -> assert false);
    (* The complement pair is tracked independently of the p0-elided
       [pred_dests] list. *)
    (match inst.op with
    | Inst.Cmp { dst_true; dst_false = Some pf; _ } ->
      cpair_t.(pc) <- dst_true;
      cpair_f.(pc) <- pf
    | _ -> ());
    (match Inst.int_srcs inst with
    | [] -> ()
    | [ r ] -> src1.(pc) <- r
    | [ r; s ] ->
      src1.(pc) <- r;
      src2.(pc) <- s
    | _ -> assert false);
    (match Inst.int_dest inst with Some d -> idst.(pc) <- d | None -> ());
    is_mem.(pc) <- (match inst.op with Inst.Load _ | Inst.Store _ -> true | _ -> false);
    let cmp_unc = match inst.op with Inst.Cmp { unc = true; _ } -> true | _ -> false in
    sel_eligible.(pc) <-
      (config.mech = Config.Select_uop
      &&
      match inst.op with
      | Inst.Cmp { unc = true; _ } -> false
      | Inst.Alu _ | Inst.Cmp _ | Inst.Pset _ -> true
      | _ -> false);
    old_dest_single.(pc) <-
      (inst.guard <> Reg.p0 && (not cmp_unc)
      && (not knobs.no_depend)
      &&
      match config.mech with
      | Config.C_style -> not (Inst.is_branch inst)
      | Config.Select_uop -> is_mem.(pc));
    byte_pc.(pc) <- Code.byte_pc pc;
    line.(pc) <- byte_pc.(pc) / config.hier.l1i.line_bytes;
    synth.(pc) <- Wish_util.Rng.hash_int pc mod program.mem_words * Code.word_bytes
  done;
  {
    npcs;
    code;
    insts;
    tclass;
    exec_class;
    is_cond;
    kind_code;
    kind_opt;
    is_wish_hw;
    bshape;
    target;
    target_or_next;
    guard;
    pdst1;
    pdst2;
    cpair_t;
    cpair_f;
    src1;
    src2;
    idst;
    is_mem;
    sel_eligible;
    old_dest_single;
    old_dest_select = not knobs.no_depend;
    line;
    byte_pc;
    synth;
  }
