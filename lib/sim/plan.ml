(** Per-pc µop templates for the compiled timing core.

    Every static fact the core needs about an instruction (exec class,
    branch kind, operand registers, predication shape, icache line, ...)
    is the same on every dynamic fetch, so a {!t} translates the whole
    code image once per (program, config)
    into flat struct-of-arrays templates with r0/p0 operands already
    elided and every config-dependent decision (mechanism, knobs, wish
    hardware) pre-folded, so the compiled per-cycle loop reads plain ints
    and never inspects a {!Wish_isa.Inst.t} again.

    Also owns the compiled wish-FSM transition table: the Figure 8 mode
    machine flattened to 48 packed-int entries indexed by
    (mode, branch kind, confidence, predicted direction). The exhaustive
    transition test pins this table against {!Wish_fsm.on_wish_branch},
    the test reference. *)

open Wish_isa

(* Branch-kind codes (the transition-table axis). *)
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
(* Wish-FSM transition table                                          *)
(* ----------------------------------------------------------------- *)

(* Packed-entry encoding (shared with {!Wish_fsm.apply_packed}): bit 0 =
   followed direction, bits 1-2 = next mode (0 normal / 1 high / 2 low),
   bit 3 = clear both low-mode pcs, bit 4 = [low_exit_pc <- target],
   bit 5 = [low_loop_pc <- pc], bit 6 = forward the guard predicate. *)
let pack ~dir ~mode ~clear ~set_exit ~set_loop ~forward =
  (if dir then 1 else 0)
  lor (mode lsl 1)
  lor (if clear then 8 else 0)
  lor (if set_exit then 16 else 0)
  lor (if set_loop then 32 else 0)
  lor (if forward then 64 else 0)

(** [wish_index ~mode ~kind ~conf_high ~dir] — table index for the current
    FSM mode code, branch-kind code, confidence estimate and predicted
    direction. *)
let wish_index ~mode ~kind ~conf_high ~dir =
  (((mode * 4) + kind) * 4) + (if conf_high then 2 else 0) + if dir then 1 else 0

(* Transcription of {!Wish_fsm.on_wish_branch}, one closed-form entry per
   input combination. *)
let wish_entry ~mode ~kind ~conf_high ~dir =
  if mode = 2 && (kind = k_wish_jump || kind = k_wish_join) then
    (* Low-confidence mode forces any wish jump/join not-taken, before the
       confidence estimate is even consulted (Table 1). *)
    pack ~dir:false ~mode:2 ~clear:false ~set_exit:false ~set_loop:false ~forward:false
  else if conf_high then
    (* High confidence: follow the predictor and forward the predicate. *)
    pack ~dir ~mode:1 ~clear:true ~set_exit:false ~set_loop:false ~forward:true
  else if kind = k_wish_jump || kind = k_wish_join then
    (* Low confidence: force not-taken and execute predicated until the
       region exit pc is fetched. *)
    pack ~dir:false ~mode:2 ~clear:true ~set_exit:true ~set_loop:false ~forward:false
  else if kind = k_wish_loop then
    if dir then
      (* Predicted iterate: stay low-confidence, owned by this loop. *)
      pack ~dir:true ~mode:2 ~clear:true ~set_exit:false ~set_loop:true ~forward:false
    else
      (* Predicted exit: leave low-confidence mode immediately. *)
      pack ~dir:false ~mode:0 ~clear:true ~set_exit:false ~set_loop:false ~forward:false
  else
    (* Plain conditional under low confidence: mode moves to low
       ([Wish_fsm.on_wish_branch] does this before dispatching on kind). *)
    pack ~dir ~mode:2 ~clear:false ~set_exit:false ~set_loop:false ~forward:false

let wish_table =
  let table = Array.make 48 0 in
  for mode = 0 to 2 do
    for kind = 0 to 3 do
      List.iter
        (fun conf_high ->
          List.iter
            (fun dir ->
              table.(wish_index ~mode ~kind ~conf_high ~dir) <-
                wish_entry ~mode ~kind ~conf_high ~dir)
            [ false; true ])
        [ false; true ]
    done
  done;
  table

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
  kind_opt : Inst.branch_kind option array; (* preallocated for branch_rec *)
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
