(** An assembled code image: instructions at consecutive PCs.

    PCs are instruction indices. For cache purposes every instruction
    occupies 4 bytes ([byte_pc]); with 64-byte I-cache lines this packs 16
    instructions per line. *)

type t = { insts : Inst.t array }

let bytes_per_inst = 4

(* One data word as seen by the cache hierarchy: emulator memory is
   word-addressed, caches are byte-addressed, and every scaling site
   (simulator data ports, sampled-run warming) must agree on the factor
   or cache-warming skews silently. *)
let word_bytes = 8

exception Invalid of string

let invalid fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

(* Every register index an instruction can touch, for image validation. *)
let reg_indices_ok (i : Inst.t) =
  let ok_i r = Reg.is_valid_ireg r in
  let ok_p p = Reg.is_valid_preg p in
  let ok_operand = function Inst.Reg r -> ok_i r | Inst.Imm _ -> true in
  ok_p i.guard
  &&
  match i.op with
  | Inst.Alu { dst; src1; src2; _ } -> ok_i dst && ok_i src1 && ok_operand src2
  | Inst.Cmp { dst_true; dst_false; src1; src2; _ } ->
    ok_p dst_true
    && (match dst_false with Some p -> ok_p p | None -> true)
    && ok_i src1 && ok_operand src2
  | Inst.Pset { dst; _ } -> ok_p dst
  | Inst.Load { dst; base; _ } -> ok_i dst && ok_i base
  | Inst.Store { src; base; _ } -> ok_i src && ok_i base
  | Inst.Branch _ | Inst.Jump _ | Inst.Call _ | Inst.Return | Inst.Halt | Inst.Nop -> true

(** [create insts] validates that all direct targets are in range, that
    every register index fits the register files, and that the image
    cannot run off the end (the last instruction must end control flow
    unconditionally). Emulator fast paths rely on this validation to use
    unchecked register/predicate accesses on any [Code.t]. *)
let create insts =
  let n = Array.length insts in
  if n = 0 then invalid "empty code image";
  Array.iteri
    (fun pc (i : Inst.t) ->
      (match Inst.direct_target i with
      | Some t when t < 0 || t >= n -> invalid "pc %d: branch target %d out of range" pc t
      | Some _ | None -> ());
      if not (reg_indices_ok i) then invalid "pc %d: register index out of range" pc;
      (* Speculated instructions may be skipped by hardware, so they must
         be free of irreversible effects. *)
      if i.spec && (Inst.writes_memory i || Inst.is_branch i) then
        invalid "pc %d: speculative mark on a store or branch" pc)
    insts;
  (match insts.(n - 1).op with
  | Inst.Halt | Inst.Return -> ()
  | Inst.Jump _ when insts.(n - 1).guard = Reg.p0 -> ()
  | _ -> invalid "last instruction must be halt, ret, or an unguarded jmp");
  { insts }

let length t = Array.length t.insts

let get t pc =
  if pc < 0 || pc >= Array.length t.insts then invalid "fetch from invalid pc %d" pc;
  t.insts.(pc)

let in_range t pc = pc >= 0 && pc < Array.length t.insts

let byte_pc pc = pc * bytes_per_inst

let iteri t f = Array.iteri f t.insts

let equal a b =
  Array.length a.insts = Array.length b.insts && Array.for_all2 Inst.equal a.insts b.insts

(* ----------------------------------------------------------------- *)
(* Static basic-block structure                                       *)
(* ----------------------------------------------------------------- *)

(** [ends_block ?fuse_wish i] — does [i] terminate a basic block?
    Control transfers and halt do; with [fuse_wish] (the emulator's
    predicate-through mode, where wish jumps and wish joins always fall
    through) those two wish flavours become straight-line code and are
    fused into their surrounding block. Wish loops keep their real
    semantics in both regimes. *)
let ends_block ?(fuse_wish = false) (i : Inst.t) =
  match i.op with
  | Inst.Branch { kind = Inst.Wish_jump | Inst.Wish_join; _ } -> not fuse_wish
  | Inst.Branch _ | Inst.Jump _ | Inst.Call _ | Inst.Return | Inst.Halt -> true
  | Inst.Alu _ | Inst.Cmp _ | Inst.Pset _ | Inst.Load _ | Inst.Store _ | Inst.Nop -> false

(** [block_leaders ?fuse_wish t] — per-pc leader flags: entry 0, every
    direct branch/jump/call target (wish join points included — they are
    targets), and the fall-through successor of every block-ending
    instruction. Return targets are call fall-throughs, already leaders. *)
let block_leaders ?fuse_wish t =
  let n = Array.length t.insts in
  let leaders = Array.make n false in
  leaders.(0) <- true;
  Array.iteri
    (fun pc (i : Inst.t) ->
      (match Inst.direct_target i with Some tgt -> leaders.(tgt) <- true | None -> ());
      if ends_block ?fuse_wish i && pc + 1 < n then leaders.(pc + 1) <- true)
    t.insts;
  leaders

(** [block_count ?fuse_wish t] — number of static basic blocks. *)
let block_count ?fuse_wish t =
  Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 (block_leaders ?fuse_wish t)

(** Static counts used by Table 4-style reports. *)
let count t p = Array.fold_left (fun acc i -> if p i then acc + 1 else acc) 0 t.insts

let static_conditional_branches t = count t Inst.is_conditional
let static_wish_branches t = count t Inst.is_wish

let static_wish_loops t =
  count t (fun i -> Inst.branch_kind i = Some Inst.Wish_loop)

let pp ppf t =
  Array.iteri (fun pc i -> Fmt.pf ppf "%4d: %a@." pc Inst.pp i) t.insts
