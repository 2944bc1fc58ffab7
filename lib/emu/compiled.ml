(** Pre-decoded, closure-threaded basic-block emulator.

    [compile] translates a validated {!Wish_isa.Code.t} image once, ahead
    of execution:

    - every static instruction becomes an OCaml closure with its operand
      shape, guard register, destinations and immediates resolved at
      compile time — executing it matches on nothing but its ALU/CMP
      operation, and ends by tail-calling the per-step sink;
    - straight-line runs are fused into superblocks: the driver in {!run}
      looks up the block at [st.pc] once, calls its closures in order,
      and updates [st.pc] and [st.retired] once per block.
      Blocks end at control transfers ({!Wish_isa.Code.ends_block});
      in [Predicate_through] mode wish jumps and wish joins always fall
      through, so they are fused and the mode gets its own, coarser block
      graph;
    - per-step facts are reported through one caller-supplied mutable
      {!Exec.out} record, reused across steps: the hot loop allocates
      nothing.

    The fuzzer's source oracle compares every binary kind's final memory
    with an evaluator over the Kernel source, test_emu checks
    hand-computed results and block edges, and test/emu_pins.expected
    pins every workload binary's outcome and trace.

    Register and predicate indices are static instruction fields validated
    once by [Code.create] (test_isa refuses a bad index in every operand
    position), so the specialized closures use unchecked array accesses.
    Data-memory accesses stay checked — addresses are dynamic and
    {!Memory.Fault} is architectural semantics. *)

open Wish_isa

(* Translation-time miscompile drill for the differential fuzzer: when
   armed, add-immediate closures are specialized with [k + 1]. The
   wishfuzz source oracle must catch it and shrink the counterexample
   to a few instructions — the end-to-end proof that the oracle watches
   every specialized closure, not just the dispatch loop. *)
let bug_site =
  Wish_util.Faultpoint.register "emu.compile.bug"
    ~doc:"miscompile add-immediate (k+1) during closure specialization (wishfuzz drill)"

type sink = Exec.out -> unit

(* The sink for callers that need no per-step facts. *)
let no_sink : sink = fun _ -> ()

(* One run's machine state, fact record and per-step consumer: the single
   argument of every specialized closure. A one-argument call of an
   unknown closure enters its code pointer directly, where a
   two-argument one goes through [caml_apply2]'s arity check; and since
   each closure ends by tail-calling [sink], the block loop makes one
   call per instruction, not two. *)
type ctx = { st : State.t; out : Exec.out; sink : sink }

let context st out ~sink = { st; out; sink }

type t = {
  mode : Exec.mode;
  core : (ctx -> unit) array;
      (* specialized closures: state effects, facts, then [sink]; [st.pc]
         is maintained by the block driver, once per block *)
  steps : (ctx -> unit) array;
      (* single-instruction closures: core + [st.pc] update *)
  suffix_len : int array; (* instructions from pc to its block's end *)
  leaders : bool array;
  blocks : int; (* static basic blocks in this mode's graph *)
}

let mode t = t.mode
let block_count t = t.blocks
let block_leaders t = t.leaders

(* Unchecked register-file primitives. Safe: every index passed below is
   a static field of a [Code.create]-validated instruction, and writes to
   r0/p0 are elided at compile time rather than tested per step. *)
let[@inline] rd (st : State.t) r = Array.unsafe_get st.regs r
let[@inline] wr (st : State.t) r v = Array.unsafe_set st.regs r v
let[@inline] rp (st : State.t) p = Array.unsafe_get st.pregs p
let[@inline] wp (st : State.t) p v = Array.unsafe_set st.pregs p v

(* An instruction's last act: store its five facts and tail-call the
   sink. Inlined into every closure below. *)
let[@inline] emit c ~pc ~guard_true ~taken ~next_pc ~addr =
  let out = c.out in
  out.Exec.o_pc <- pc;
  out.o_guard_true <- guard_true;
  out.o_taken <- taken;
  out.o_next_pc <- next_pc;
  out.o_addr <- addr;
  c.sink out

(* ALU and compare semantics. *)
let[@inline] alu op a b =
  match op with
  | Inst.Add -> a + b
  | Inst.Sub -> a - b
  | Inst.Mul -> a * b
  | Inst.And -> a land b
  | Inst.Or -> a lor b
  | Inst.Xor -> a lxor b
  | Inst.Shl -> a lsl (b land 63)
  | Inst.Shr -> a asr (b land 63)

let[@inline] cmp op (a : int) b =
  match op with
  | Inst.Eq -> a = b
  | Inst.Ne -> a <> b
  | Inst.Lt -> a < b
  | Inst.Le -> a <= b
  | Inst.Gt -> a > b
  | Inst.Ge -> a >= b

(* A compare's destination writes; [dt]/[df] are -1 when discarded (p0
   or absent). *)
let[@inline] write_cmp st dt df v =
  if dt >= 0 then wp st dt v;
  if df >= 0 then wp st df (not v)

(* Specialize the instruction at [pc] into a closure applying its state
   effects and reporting its facts. Leaves [st.pc] alone (the block
   driver maintains it) and never touches [st.retired] (counted per
   block). Everything static — operand shape, guard, destinations,
   successor — is resolved here; an ALU or compare operation is a jump
   table on [op] inside the closure ([alu]/[cmp], inlined), not a nested
   closure call. *)
let specialize (m : Exec.mode) code pc : ctx -> unit =
  let i = Code.get code pc in
  let fall = pc + 1 in
  let g = i.Inst.guard in
  match i.op with
  | Inst.Nop ->
    if g = Reg.p0 then fun c -> emit c ~pc ~guard_true:true ~taken:false ~next_pc:fall ~addr:(-1)
    else fun c -> emit c ~pc ~guard_true:(rp c.st g) ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Alu { op; dst; src1; src2 = Inst.Imm k } ->
    let dst = if dst = Reg.r0 then -1 else dst in
    let k = if dst >= 0 && op = Inst.Add && Wish_util.Faultpoint.fires bug_site then k + 1 else k in
    if g = Reg.p0 then (fun c ->
      if dst >= 0 then wr c.st dst (alu op (rd c.st src1) k);
      emit c ~pc ~guard_true:true ~taken:false ~next_pc:fall ~addr:(-1))
    else fun c ->
      let t = rp c.st g in
      if t && dst >= 0 then wr c.st dst (alu op (rd c.st src1) k);
      emit c ~pc ~guard_true:t ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Alu { op; dst; src1; src2 = Inst.Reg r2 } ->
    let dst = if dst = Reg.r0 then -1 else dst in
    if g = Reg.p0 then (fun c ->
      if dst >= 0 then wr c.st dst (alu op (rd c.st src1) (rd c.st r2));
      emit c ~pc ~guard_true:true ~taken:false ~next_pc:fall ~addr:(-1))
    else fun c ->
      let t = rp c.st g in
      if t && dst >= 0 then wr c.st dst (alu op (rd c.st src1) (rd c.st r2));
      emit c ~pc ~guard_true:t ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Cmp { op; dst_true; dst_false; src1; src2; unc } ->
    let dt = if dst_true = Reg.p0 then -1 else dst_true in
    let df = match dst_false with Some p when p <> Reg.p0 -> p | _ -> -1 in
    let imm, k, r2 = match src2 with Inst.Imm k -> (true, k, 0) | Inst.Reg r -> (false, 0, r) in
    if g = Reg.p0 then (fun c ->
      let st = c.st in
      write_cmp st dt df (cmp op (rd st src1) (if imm then k else rd st r2));
      emit c ~pc ~guard_true:true ~taken:false ~next_pc:fall ~addr:(-1))
    else if unc then (fun c ->
      let st = c.st in
      let t = rp st g in
      if t then write_cmp st dt df (cmp op (rd st src1) (if imm then k else rd st r2))
      else begin
        (* cmp.unc with a false guard clears both destinations. *)
        if dt >= 0 then wp st dt false;
        if df >= 0 then wp st df false
      end;
      emit c ~pc ~guard_true:t ~taken:false ~next_pc:fall ~addr:(-1))
    else fun c ->
      let st = c.st in
      let t = rp st g in
      if t then write_cmp st dt df (cmp op (rd st src1) (if imm then k else rd st r2));
      emit c ~pc ~guard_true:t ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Pset { dst; value } ->
    let dst = if dst = Reg.p0 then -1 else dst in
    if g = Reg.p0 then (fun c ->
      if dst >= 0 then wp c.st dst value;
      emit c ~pc ~guard_true:true ~taken:false ~next_pc:fall ~addr:(-1))
    else fun c ->
      let t = rp c.st g in
      if t && dst >= 0 then wp c.st dst value;
      emit c ~pc ~guard_true:t ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Load { dst; base; offset } ->
    (* A load to r0 still performs the read (it can fault); only the
       write-back is discarded. *)
    let dst = if dst = Reg.r0 then -1 else dst in
    let load c =
      let st = c.st in
      let addr = rd st base + offset in
      let v = Memory.read st.State.mem addr in
      if dst >= 0 then wr st dst v;
      emit c ~pc ~guard_true:true ~taken:false ~next_pc:fall ~addr
    in
    if g = Reg.p0 then load
    else fun c ->
      if rp c.st g then load c
      else emit c ~pc ~guard_true:false ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Store { src; base; offset } ->
    let store c =
      let st = c.st in
      let addr = rd st base + offset in
      Memory.write st.State.mem addr (rd st src);
      emit c ~pc ~guard_true:true ~taken:false ~next_pc:fall ~addr
    in
    if g = Reg.p0 then store
    else fun c ->
      if rp c.st g then store c
      else emit c ~pc ~guard_true:false ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Branch { target = next_pc; _ } | Inst.Jump { target = next_pc } ->
    (* The successor of a taken branch is static — including the forced
       fall-through of wish jumps/joins in predicate-through mode. *)
    let next_pc =
      match (m, i.op) with
      | Exec.Predicate_through, Inst.Branch { kind = Inst.Wish_jump | Inst.Wish_join; _ } -> fall
      | _ -> next_pc
    in
    if g = Reg.p0 then fun c -> emit c ~pc ~guard_true:true ~taken:true ~next_pc ~addr:(-1)
    else fun c ->
      if rp c.st g then emit c ~pc ~guard_true:true ~taken:true ~next_pc ~addr:(-1)
      else emit c ~pc ~guard_true:false ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Call { target } ->
    let call c =
      State.push_ra c.st fall;
      emit c ~pc ~guard_true:true ~taken:true ~next_pc:target ~addr:(-1)
    in
    if g = Reg.p0 then call
    else fun c ->
      if rp c.st g then call c
      else emit c ~pc ~guard_true:false ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Return ->
    let return c =
      let next_pc = State.pop_ra c.st in
      emit c ~pc ~guard_true:true ~taken:true ~next_pc ~addr:(-1)
    in
    if g = Reg.p0 then return
    else fun c ->
      if rp c.st g then return c
      else emit c ~pc ~guard_true:false ~taken:false ~next_pc:fall ~addr:(-1)
  | Inst.Halt ->
    if g = Reg.p0 then (fun c ->
      c.st.State.halted <- true;
      emit c ~pc ~guard_true:true ~taken:false ~next_pc:fall ~addr:(-1))
    else fun c ->
      let t = rp c.st g in
      if t then c.st.State.halted <- true;
      emit c ~pc ~guard_true:t ~taken:false ~next_pc:fall ~addr:(-1)

(** [compile ~mode code] — one-time translation of [code] for [mode]. *)
let compile ~mode code =
  let n = Code.length code in
  (* The image's static targets and register indices were validated by
     [Code.create] (the only constructor of a [Code.t]); that is what
     licenses the unchecked accesses inside [specialize]. *)
  let core = Array.init n (specialize mode code) in
  let steps =
    Array.map
      (fun f ->
        fun c ->
          f c;
          c.st.State.pc <- c.out.o_next_pc)
      core
  in
  let fuse_wish = mode = Exec.Predicate_through in
  let suffix_len = Array.make n 1 in
  (* Back to front: distance from each pc to the end of its block.
     [Code.create] guarantees the last instruction ends its block. *)
  for pc = n - 2 downto 0 do
    if not (Code.ends_block ~fuse_wish (Code.get code pc)) then
      suffix_len.(pc) <- suffix_len.(pc + 1) + 1
  done;
  let leaders = Code.block_leaders ~fuse_wish code in
  let blocks = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 leaders in
  { mode; core; steps; suffix_len; leaders; blocks }

(** [run t c ~fuel ~steps] — execute whole blocks of [c]'s machine until
    it halts or at least [steps] more instructions have retired (block
    fusion may overshoot to the end of the final block). [c]'s sink is
    invoked once per instruction with the shared fact record — it must
    copy what it needs and must not mutate the state. Raises
    {!Exec.Out_of_fuel} with exactly [fuel] instructions retired: blocks
    that would cross the fuel line fall back to fuel-checked
    single-stepping. *)
let run t c ~fuel ~steps =
  let st = c.st and out = c.out in
  let target =
    let tgt = st.retired + steps in
    if tgt < st.retired then max_int else tgt (* overflow clamp *)
  in
  let core = t.core and slen = t.suffix_len and stepa = t.steps in
  while (not st.halted) && st.retired < target do
    let pc = st.pc in
    let len = Array.unsafe_get slen pc in
    if st.retired + len > fuel then begin
      (* Fuel-exact fallback: raise with exactly [fuel] retired. *)
      if st.retired >= fuel then raise (Exec.Out_of_fuel fuel);
      (Array.unsafe_get stepa pc) c;
      st.retired <- st.retired + 1
    end
    else begin
      (* One dispatch per block: the inner loop walks the straight-line
         run to the block's end; [st.pc] is updated once, from the
         terminal instruction's successor. *)
      for p = pc to pc + len - 1 do
        (Array.unsafe_get core p) c
      done;
      st.pc <- out.o_next_pc;
      st.retired <- st.retired + len
    end
  done

(** [run_to_halt t st out ~sink ~fuel] — {!run} with no step bound. *)
let run_to_halt t st out ~sink ~fuel = run t (context st out ~sink) ~fuel ~steps:max_int

(** [run_hooked t st out ~hooks ~fuel ~steps] — the warm-sink execution
    mode: like {!run} but the per-instruction consumer is selected per pc
    from [hooks] (so a warming plan pays one indirect call into a
    specialized hook instead of decode-plus-dispatch per instruction),
    and the stop is *exact*: where {!run} overshoots to the end of the
    final block, this driver single-steps the last partial block so
    [st.retired] lands precisely on the requested count. Sampled-run
    checkpoints cut at precise trace indices; that exactness is what lets
    the fused warming path stop where a window opens. Fuel raises
    {!Exec.Out_of_fuel} with exactly [fuel] instructions retired. *)
let run_hooked t (st : State.t) out ~(hooks : sink array) ~fuel ~steps =
  let target =
    let tgt = st.retired + steps in
    if tgt < st.retired then max_int else tgt (* overflow clamp *)
  in
  let core = t.core and slen = t.suffix_len and stepa = t.steps in
  let c = context st out ~sink:no_sink in
  while (not st.halted) && st.retired < target do
    let pc = st.pc in
    let len = Array.unsafe_get slen pc in
    if st.retired + len > fuel then begin
      (* Fuel-exact fallback: raise with exactly [fuel] retired. *)
      if st.retired >= fuel then raise (Exec.Out_of_fuel fuel);
      (Array.unsafe_get stepa pc) c;
      let h = Array.unsafe_get hooks pc in
      if h != no_sink then h out;
      st.retired <- st.retired + 1
    end
    else if st.retired + len > target then begin
      (* Exact-stop fallback: the block would overshoot [target], so walk
         its head instruction by instruction. *)
      (Array.unsafe_get stepa pc) c;
      let h = Array.unsafe_get hooks pc in
      if h != no_sink then h out;
      st.retired <- st.retired + 1
    end
    else begin
      for p = pc to pc + len - 1 do
        (Array.unsafe_get core p) c;
        (* [no_sink] marks pcs whose warm step is statically nothing
           (straight-line instructions on an already-touched I-line): a
           pointer compare instead of a call into a hook, on the ~3/4 of
           a typical stream that retires through here. The closure
           itself still ends by calling the context's sink, [no_sink]. *)
        let h = Array.unsafe_get hooks p in
        if h != no_sink then h out
      done;
      st.pc <- out.o_next_pc;
      st.retired <- st.retired + len
    end
  done
