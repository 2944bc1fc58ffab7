(** Pre-decoded, closure-threaded basic-block emulator.

    [compile] translates a validated {!Wish_isa.Code.t} image once, ahead
    of execution:

    - every static instruction becomes an OCaml closure with its operand
      shape, guard register, ALU/CMP operation and immediates resolved at
      compile time — executing it performs no variant matching;
    - straight-line runs are fused into superblocks: each closure tail-calls
      the next instruction's closure directly, so the fetch/dispatch loop
      in {!run} executes once per block instead of once per instruction.
      Blocks end at control transfers ({!Wish_isa.Code.ends_block});
      in [Predicate_through] mode wish jumps and wish joins always fall
      through, so they are fused and the mode gets its own, coarser block
      graph;
    - per-step facts are reported through one caller-supplied mutable
      {!Exec.out} record, reused across steps: the hot loop allocates
      nothing.

    The interpreted {!Exec.step_into} remains the golden reference; the
    [emu-identity] test group, the [@emu-smoke] bench and the fuzzer's
    lockstep oracle assert that this module is observably equivalent,
    step for step and trace for trace.

    Register and predicate indices are static instruction fields validated
    once by [Code.create], so the specialized closures use unchecked array
    accesses; [WISH_EMU_CHECKED=1] (or [compile ~checked:true]) rebuilds
    the block graph over the fully bounds-checked interpreter core
    instead. Data-memory accesses stay checked in both regimes —
    addresses are dynamic and {!Memory.Fault} is architectural
    semantics. *)

open Wish_isa

(* Translation-time miscompile drill for the differential fuzzer: when
   armed, add-immediate closures are specialized with [k + 1]. The
   wishfuzz lockstep oracle must catch it and shrink the counterexample
   to a few instructions — the end-to-end proof that the oracle watches
   every specialized closure, not just the dispatch loop. *)
let bug_site =
  Wish_util.Faultpoint.register "emu.compile.bug"
    ~doc:"miscompile add-immediate (k+1) during closure specialization (wishfuzz drill)"

type sink = Exec.out -> unit

(* Physical-identity sentinel: [run ~sink:no_sink] skips the per-step
   callback entirely instead of paying an indirect call into a no-op. *)
let no_sink : sink = fun _ -> ()

type t = {
  mode : Exec.mode;
  checked : bool;
  n : int;
  core : (State.t -> Exec.out -> unit) array;
      (* specialized closures: facts + state effects; [st.pc] is
         maintained by the block driver, once per block *)
  steps : (State.t -> Exec.out -> unit) array;
      (* single-instruction closures: core + [st.pc] update *)
  suffix_len : int array; (* instructions from pc to its block's end *)
  leaders : bool array;
  blocks : int; (* static basic blocks in this mode's graph *)
}

let mode t = t.mode
let is_checked t = t.checked
let block_count t = t.blocks
let block_leaders t = t.leaders

(** Mean static instructions per block in this mode's block graph. *)
let mean_block_len t = float_of_int t.n /. float_of_int (max 1 t.blocks)

(* Unchecked register-file primitives. Safe: every index passed below is
   a static field of a [Code.create]-validated instruction, and writes to
   r0/p0 are elided at compile time rather than tested per step. *)
let[@inline] rd (st : State.t) r = Array.unsafe_get st.regs r
let[@inline] wr (st : State.t) r v = Array.unsafe_set st.regs r v
let[@inline] rp (st : State.t) p = Array.unsafe_get st.pregs p
let[@inline] wp (st : State.t) p v = Array.unsafe_set st.pregs p v

(* Specialize the instruction at [pc] into a closure computing its facts
   and state effects. Leaves [st.pc] alone (the block driver maintains
   it) and never touches [st.retired] (counted per block).

   The closure bodies below spell the five fact stores out instead of
   sharing a [set_facts] helper: a shared helper would be a separate
   closure, and each call costs an indirect jump on the per-instruction
   path — comparable to the stores themselves. Same reason the guard
   test is duplicated per arm instead of wrapped by a combinator, and
   the cmp/pset destinations are -1-encoded ints tested inline rather
   than a specialized write-back closure. *)
let specialize (m : Exec.mode) code pc : State.t -> Exec.out -> unit =
  let i = Code.get code pc in
  let fall = pc + 1 in
  let g = i.Inst.guard in
  let open Exec in
  match i.op with
  | Inst.Nop ->
    if g = Reg.p0 then (fun _st out ->
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- false;
      out.o_next_pc <- fall;
      out.o_addr <- -1)
    else
      fun st out ->
        out.o_pc <- pc;
        out.o_guard_true <- rp st g;
        out.o_taken <- false;
        out.o_next_pc <- fall;
        out.o_addr <- -1
  | Inst.Alu { op; dst; src1; src2 } ->
    let work =
      if dst = Reg.r0 then fun _ -> ()
      else begin
        match src2 with
        | Inst.Imm k -> (
          match op with
          | Inst.Add ->
            let k = if Wish_util.Faultpoint.fires bug_site then k + 1 else k in
            fun st -> wr st dst (rd st src1 + k)
          | Inst.Sub -> fun st -> wr st dst (rd st src1 - k)
          | Inst.Mul -> fun st -> wr st dst (rd st src1 * k)
          | Inst.And -> fun st -> wr st dst (rd st src1 land k)
          | Inst.Or -> fun st -> wr st dst (rd st src1 lor k)
          | Inst.Xor -> fun st -> wr st dst (rd st src1 lxor k)
          | Inst.Shl ->
            let k = k land 63 in
            fun st -> wr st dst (rd st src1 lsl k)
          | Inst.Shr ->
            let k = k land 63 in
            fun st -> wr st dst (rd st src1 asr k))
        | Inst.Reg r2 -> (
          match op with
          | Inst.Add -> fun st -> wr st dst (rd st src1 + rd st r2)
          | Inst.Sub -> fun st -> wr st dst (rd st src1 - rd st r2)
          | Inst.Mul -> fun st -> wr st dst (rd st src1 * rd st r2)
          | Inst.And -> fun st -> wr st dst (rd st src1 land rd st r2)
          | Inst.Or -> fun st -> wr st dst (rd st src1 lor rd st r2)
          | Inst.Xor -> fun st -> wr st dst (rd st src1 lxor rd st r2)
          | Inst.Shl -> fun st -> wr st dst (rd st src1 lsl (rd st r2 land 63))
          | Inst.Shr -> fun st -> wr st dst (rd st src1 asr (rd st r2 land 63)))
      end
    in
    if g = Reg.p0 then (fun st out ->
      work st;
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- false;
      out.o_next_pc <- fall;
      out.o_addr <- -1)
    else
      fun st out ->
        (if rp st g then begin
           work st;
           out.o_guard_true <- true
         end
         else out.o_guard_true <- false);
        out.o_pc <- pc;
        out.o_taken <- false;
        out.o_next_pc <- fall;
        out.o_addr <- -1
  | Inst.Cmp { op; dst_true; dst_false; src1; src2; unc } ->
    let value =
      match src2 with
      | Inst.Imm k -> (
        match op with
        | Inst.Eq -> fun st -> rd st src1 = k
        | Inst.Ne -> fun st -> rd st src1 <> k
        | Inst.Lt -> fun st -> rd st src1 < k
        | Inst.Le -> fun st -> rd st src1 <= k
        | Inst.Gt -> fun st -> rd st src1 > k
        | Inst.Ge -> fun st -> rd st src1 >= k)
      | Inst.Reg r2 -> (
        match op with
        | Inst.Eq -> fun st -> rd st src1 = rd st r2
        | Inst.Ne -> fun st -> rd st src1 <> rd st r2
        | Inst.Lt -> fun st -> rd st src1 < rd st r2
        | Inst.Le -> fun st -> rd st src1 <= rd st r2
        | Inst.Gt -> fun st -> rd st src1 > rd st r2
        | Inst.Ge -> fun st -> rd st src1 >= rd st r2)
    in
    (* Destination predicates as ints, -1 encoding "discarded" (p0 or
       absent). *)
    let dt = if dst_true = Reg.p0 then -1 else dst_true in
    let df = match dst_false with Some p when p <> Reg.p0 -> p | _ -> -1 in
    if g = Reg.p0 then (fun st out ->
      let v = value st in
      if dt >= 0 then wp st dt v;
      if df >= 0 then wp st df (not v);
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- false;
      out.o_next_pc <- fall;
      out.o_addr <- -1)
    else if unc then (fun st out ->
      (if rp st g then begin
         let v = value st in
         if dt >= 0 then wp st dt v;
         if df >= 0 then wp st df (not v);
         out.o_guard_true <- true
       end
       else begin
         (* cmp.unc with a false guard clears both destinations. *)
         if dt >= 0 then wp st dt false;
         if df >= 0 then wp st df false;
         out.o_guard_true <- false
       end);
      out.o_pc <- pc;
      out.o_taken <- false;
      out.o_next_pc <- fall;
      out.o_addr <- -1)
    else
      fun st out ->
        (if rp st g then begin
           let v = value st in
           if dt >= 0 then wp st dt v;
           if df >= 0 then wp st df (not v);
           out.o_guard_true <- true
         end
         else out.o_guard_true <- false);
        out.o_pc <- pc;
        out.o_taken <- false;
        out.o_next_pc <- fall;
        out.o_addr <- -1
  | Inst.Pset { dst; value } ->
    let dst = if dst = Reg.p0 then -1 else dst in
    if g = Reg.p0 then (fun st out ->
      if dst >= 0 then wp st dst value;
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- false;
      out.o_next_pc <- fall;
      out.o_addr <- -1)
    else
      fun st out ->
        (if rp st g then begin
           if dst >= 0 then wp st dst value;
           out.o_guard_true <- true
         end
         else out.o_guard_true <- false);
        out.o_pc <- pc;
        out.o_taken <- false;
        out.o_next_pc <- fall;
        out.o_addr <- -1
  | Inst.Load { dst; base; offset } ->
    (* A load to r0 still performs the read (it can fault); only the
       write-back is discarded. *)
    let dst = if dst = Reg.r0 then -1 else dst in
    if g = Reg.p0 then (fun st out ->
      let addr = rd st base + offset in
      let v = Memory.read st.State.mem addr in
      if dst >= 0 then wr st dst v;
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- false;
      out.o_next_pc <- fall;
      out.o_addr <- addr)
    else
      fun st out ->
        (if rp st g then begin
           let addr = rd st base + offset in
           let v = Memory.read st.State.mem addr in
           if dst >= 0 then wr st dst v;
           out.o_guard_true <- true;
           out.o_addr <- addr
         end
         else begin
           out.o_guard_true <- false;
           out.o_addr <- -1
         end);
        out.o_pc <- pc;
        out.o_taken <- false;
        out.o_next_pc <- fall
  | Inst.Store { src; base; offset } ->
    if g = Reg.p0 then (fun st out ->
      let addr = rd st base + offset in
      Memory.write st.State.mem addr (rd st src);
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- false;
      out.o_next_pc <- fall;
      out.o_addr <- addr)
    else
      fun st out ->
        (if rp st g then begin
           let addr = rd st base + offset in
           Memory.write st.State.mem addr (rd st src);
           out.o_guard_true <- true;
           out.o_addr <- addr
         end
         else begin
           out.o_guard_true <- false;
           out.o_addr <- -1
         end);
        out.o_pc <- pc;
        out.o_taken <- false;
        out.o_next_pc <- fall
  | Inst.Branch { kind; target } ->
    (* The successor of a taken branch is static — including the forced
       fall-through of wish jumps/joins in predicate-through mode. *)
    let follow =
      match (m, kind) with
      | Exec.Predicate_through, (Inst.Wish_jump | Inst.Wish_join) -> fall
      | _, (Inst.Cond | Inst.Wish_jump | Inst.Wish_join | Inst.Wish_loop) -> target
    in
    if g = Reg.p0 then (fun _st out ->
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- true;
      out.o_next_pc <- follow;
      out.o_addr <- -1)
    else
      fun st out ->
        (if rp st g then begin
           out.o_guard_true <- true;
           out.o_taken <- true;
           out.o_next_pc <- follow
         end
         else begin
           out.o_guard_true <- false;
           out.o_taken <- false;
           out.o_next_pc <- fall
         end);
        out.o_pc <- pc;
        out.o_addr <- -1
  | Inst.Jump { target } ->
    if g = Reg.p0 then (fun _st out ->
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- true;
      out.o_next_pc <- target;
      out.o_addr <- -1)
    else
      fun st out ->
        (if rp st g then begin
           out.o_guard_true <- true;
           out.o_taken <- true;
           out.o_next_pc <- target
         end
         else begin
           out.o_guard_true <- false;
           out.o_taken <- false;
           out.o_next_pc <- fall
         end);
        out.o_pc <- pc;
        out.o_addr <- -1
  | Inst.Call { target } ->
    if g = Reg.p0 then (fun st out ->
      State.push_ra st fall;
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- true;
      out.o_next_pc <- target;
      out.o_addr <- -1)
    else
      fun st out ->
        (if rp st g then begin
           State.push_ra st fall;
           out.o_guard_true <- true;
           out.o_taken <- true;
           out.o_next_pc <- target
         end
         else begin
           out.o_guard_true <- false;
           out.o_taken <- false;
           out.o_next_pc <- fall
         end);
        out.o_pc <- pc;
        out.o_addr <- -1
  | Inst.Return ->
    if g = Reg.p0 then (fun st out ->
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- true;
      out.o_next_pc <- State.pop_ra st;
      out.o_addr <- -1)
    else
      fun st out ->
        (if rp st g then begin
           out.o_guard_true <- true;
           out.o_taken <- true;
           out.o_next_pc <- State.pop_ra st
         end
         else begin
           out.o_guard_true <- false;
           out.o_taken <- false;
           out.o_next_pc <- fall
         end);
        out.o_pc <- pc;
        out.o_addr <- -1
  | Inst.Halt ->
    if g = Reg.p0 then (fun st out ->
      st.State.halted <- true;
      out.o_pc <- pc;
      out.o_guard_true <- true;
      out.o_taken <- false;
      out.o_next_pc <- fall;
      out.o_addr <- -1)
    else
      fun st out ->
        (if rp st g then begin
           st.State.halted <- true;
           out.o_guard_true <- true
         end
         else out.o_guard_true <- false);
        out.o_pc <- pc;
        out.o_taken <- false;
        out.o_next_pc <- fall;
        out.o_addr <- -1

(** [compile ?checked ~mode code] — one-time translation of [code] for
    [mode]. [checked] (default: the [WISH_EMU_CHECKED] environment flag)
    keeps every array access bounds-checked by building the block graph
    over the interpreter core — same block structure, golden accesses. *)
let compile ?checked ~mode code =
  let checked = match checked with Some c -> c | None -> State.checked in
  let n = Code.length code in
  let core =
    (* The image's static targets and register indices were validated by
       [Code.create] (the only constructor of a [Code.t]); that is what
       licenses the unchecked accesses inside [specialize]. *)
    Array.init n (fun pc ->
        if checked then fun st out -> Exec.step_at mode code st ~pc out
        else specialize mode code pc)
  in
  let steps =
    Array.map
      (fun f ->
        fun st (out : Exec.out) ->
          f st out;
          st.State.pc <- out.o_next_pc)
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
  { mode; checked; n; core; steps; suffix_len; leaders; blocks }

(** [step t st out] — execute exactly one instruction, mirroring
    {!Exec.step_into} (facts into [out], [st.pc]/[st.retired] updated).
    The lockstep probe for compiled≡interpreted equivalence testing. *)
let step t (st : State.t) out =
  assert (not st.halted);
  let pc = st.pc in
  if pc < 0 || pc >= t.n then
    invalid_arg (Printf.sprintf "Compiled.step: pc %d outside [0, %d)" pc t.n);
  (Array.unsafe_get t.steps pc) st out;
  st.retired <- st.retired + 1

(** [run t st out ~sink ~fuel ~steps] — execute whole blocks until the
    machine halts or at least [steps] more instructions have retired
    (block fusion may overshoot to the end of the final block). [sink] is
    invoked once per instruction with the shared [out] record — it must
    copy what it needs and must not mutate [st]; pass {!no_sink} (that
    exact closure, compared physically) to run without per-step
    emission. Raises
    {!Exec.Out_of_fuel} exactly where the interpreted loop would: blocks
    that would cross the fuel line fall back to fuel-checked
    single-stepping. *)
let run t (st : State.t) out ~(sink : sink) ~fuel ~steps =
  let target =
    let tgt = st.retired + steps in
    if tgt < st.retired then max_int else tgt (* overflow clamp *)
  in
  let core = t.core and slen = t.suffix_len and stepa = t.steps in
  let checked = t.checked in
  if fuel = max_int && target = max_int && not checked then
    (* Unbounded fast path: no fuel or step accounting per block. This is
       the run-to-completion configuration (Trace.generate, Profile,
       benches); mcf's architectural block graph averages under four
       instructions per block, so the bound checks are a measurable
       per-instruction tax there. *)
    while not st.halted do
      let pc = st.pc in
      let len = Array.unsafe_get slen pc in
      if sink == no_sink then
        for p = pc to pc + len - 1 do
          (Array.unsafe_get core p) st out
        done
      else
        for p = pc to pc + len - 1 do
          (Array.unsafe_get core p) st out;
          sink out
        done;
      st.pc <- out.o_next_pc;
      st.retired <- st.retired + len
    done
  else
  while (not st.halted) && st.retired < target do
    let pc = st.pc in
    if checked && (pc < 0 || pc >= t.n) then
      invalid_arg (Printf.sprintf "Compiled.run: pc %d outside [0, %d)" pc t.n);
    let len = Array.unsafe_get slen pc in
    if st.retired + len > fuel then begin
      (* Fuel-exact fallback: same raise point as the interpreter. *)
      if st.retired >= fuel then raise (Exec.Out_of_fuel fuel);
      (Array.unsafe_get stepa pc) st out;
      sink out;
      st.retired <- st.retired + 1
    end
    else begin
      (* One dispatch per block: the inner loop walks the straight-line
         run to the block's end; [st.pc] is updated once, from the
         terminal instruction's successor. *)
      if sink == no_sink then
        for p = pc to pc + len - 1 do
          (Array.unsafe_get core p) st out
        done
      else
        for p = pc to pc + len - 1 do
          (Array.unsafe_get core p) st out;
          sink out
        done;
      st.pc <- out.o_next_pc;
      st.retired <- st.retired + len
    end
  done

(** [run_to_halt t st out ~sink ~fuel] — {!run} with no step bound. *)
let run_to_halt t st out ~sink ~fuel = run t st out ~sink ~fuel ~steps:max_int

(** [run_hooked t st out ~hooks ~fuel ~steps] — the warm-sink execution
    mode: like {!run} but the per-instruction consumer is selected per pc
    from [hooks] (so a warming plan pays one indirect call into a
    specialized hook instead of decode-plus-dispatch per instruction),
    and the stop is *exact*: where {!run} overshoots to the end of the
    final block, this driver single-steps the last partial block so
    [st.retired] lands precisely on the requested count. Sampled-run
    checkpoints cut at precise trace indices; that exactness is what lets
    the fused warming path replace per-entry trace replay. Fuel raises
    {!Exec.Out_of_fuel} at exactly the interpreter's instruction. *)
let run_hooked t (st : State.t) out ~(hooks : sink array) ~fuel ~steps =
  let target =
    let tgt = st.retired + steps in
    if tgt < st.retired then max_int else tgt (* overflow clamp *)
  in
  let core = t.core and slen = t.suffix_len and stepa = t.steps in
  let checked = t.checked in
  while (not st.halted) && st.retired < target do
    let pc = st.pc in
    if checked && (pc < 0 || pc >= t.n) then
      invalid_arg (Printf.sprintf "Compiled.run_hooked: pc %d outside [0, %d)" pc t.n);
    let len = Array.unsafe_get slen pc in
    if st.retired + len > fuel then begin
      (* Fuel-exact fallback: same raise point as the interpreter. *)
      if st.retired >= fuel then raise (Exec.Out_of_fuel fuel);
      (Array.unsafe_get stepa pc) st out;
      let h = Array.unsafe_get hooks pc in
      if h != no_sink then h out;
      st.retired <- st.retired + 1
    end
    else if st.retired + len > target then begin
      (* Exact-stop fallback: the block would overshoot [target], so walk
         its head instruction by instruction. *)
      (Array.unsafe_get stepa pc) st out;
      let h = Array.unsafe_get hooks pc in
      if h != no_sink then h out;
      st.retired <- st.retired + 1
    end
    else begin
      for p = pc to pc + len - 1 do
        (Array.unsafe_get core p) st out;
        (* [no_sink] marks pcs whose warm step is statically nothing
           (straight-line instructions on an already-touched I-line): a
           pointer compare instead of an indirect call, on the ~3/4 of a
           typical stream that retires through here. *)
        let h = Array.unsafe_get hooks p in
        if h != no_sink then h out
      done;
      st.pc <- out.o_next_pc;
      st.retired <- st.retired + len
    end
  done
