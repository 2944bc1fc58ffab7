(** µops in flight, and the per-branch recovery record.

    Renaming uses producer identifiers: a register alias table maps each
    architectural register to the sequence number of its youngest in-flight
    producer; a µop's sources are the producer ids it must wait for. This
    avoids an explicit physical register file while modelling exactly the
    same dependence timing.

    Every field is mutable because dead µops are pooled and reinitialized
    by {!Core} instead of reallocated — the streaming pipeline would
    otherwise trade trace memory for minor-GC churn. Identity lives in
    [id], which is fresh and monotone for every (re)initialization: stale
    ids parked in the ready queue, the event wheel, or a producer's waiter
    array simply miss the in-flight table once their µop is recycled. *)

open Wish_isa

type path =
  | Correct (* matches the oracle trace *)
  | Wrong (* fetched past a misprediction; will be squashed *)
  | Phantom (* wish-loop extra iterations: architectural NOPs that retire *)

(** Front-end mode of Figure 8. *)
type mode = Normal | High_conf | Low_conf

type exec_class = Ec_nop | Ec_alu | Ec_mul | Ec_load | Ec_store | Ec_ctrl

type state = Waiting | In_ready_queue | Issued | Done

(** Wish-loop low-confidence misprediction classes (paper Section 3.2). *)
type loop_class = Lc_none | Lc_early | Lc_late | Lc_no_exit

type branch_rec = {
  mutable predicted_taken : bool;
  mutable predicted_target : int;
  mutable actual_taken : bool; (* oracle direction; = predicted for wrong-path *)
  mutable actual_next : int; (* architectural successor pc *)
  mutable ras_top : int;
  mutable cursor_next : int; (* oracle cursor right after this branch *)
  mutable fetch_mode : mode;
  mutable conf_high : bool option; (* Some for wish branches under wish hardware *)
  mutable conf_history : int; (* global history at fetch, for JRS training *)
  mutable wish_kind : Inst.branch_kind option; (* None for jump/call/return *)
  mutable is_return : bool;
  mutable loop_gen : int; (* wish-loop visit generation at fetch *)
  mutable rat_ckpt : Rat.snapshot option; (* filled at rename; buffer reused *)
  mutable resolved : bool;
  mutable loop_class : loop_class;
  (* The direction predictor's buffers, part of the pooled identity like
     [br] itself: refilled in place at every fetch, so predicting
     allocates nothing. The [_valid] flags are set for conditional
     branches, the only ones the predictor sees. *)
  lu : Wish_bpred.Hybrid.lbuf;
  mutable lu_valid : bool;
  sn : Wish_bpred.Hybrid.sbuf;
  mutable sn_valid : bool;
}

type t = {
  mutable id : int;
  mutable pc : int;
  mutable inst : Inst.t;
  mutable path : path;
  mutable exec_class : exec_class;
  mutable byte_addr : int; (* memory byte address, or -1 *)
  mutable guard_false : bool; (* oracle: this µop is an architectural NOP *)
  mutable guard_forwarded : bool; (* predicate-dependency elimination applied *)
  mutable is_select : bool; (* the select µop of the select-µop mechanism *)
  mutable is_pair_compute : bool; (* the computation half of a select-µop pair *)
  mutable consumes_trace : bool; (* retiring advances the completion count *)
  mutable mode_at_fetch : mode;
  mutable trace_idx : int; (* oracle trace entry consumed at fetch, or -1 *)
  br : branch_rec option;
      (* part of the µop's pooled identity: [Some] forever on branch µops,
         [None] forever on plain ones — never rebound, only refilled *)
  mutable fetch_cycle : int;
  (* Scheduling state. *)
  mutable pending : int; (* producers not yet complete *)
  mutable waiters : int array; (* µop ids to wake on completion... *)
  mutable nwaiters : int; (* ...the first [nwaiters] slots are live *)
  mutable state : state;
  mutable flushed : bool;
  mutable complete_cycle : int;
}

let is_branch_uop u = u.br <> None

let is_wish u = match u.br with Some b -> b.wish_kind <> None | None -> false

let mispredicted (b : branch_rec) =
  b.predicted_taken <> b.actual_taken
  || (b.is_return && b.predicted_target <> b.actual_next)

let add_waiter u id =
  if u.nwaiters = Array.length u.waiters then begin
    let bigger = Array.make (max 8 (2 * u.nwaiters)) 0 in
    Array.blit u.waiters 0 bigger 0 u.nwaiters;
    u.waiters <- bigger
  end;
  u.waiters.(u.nwaiters) <- id;
  u.nwaiters <- u.nwaiters + 1

(* Skeletons for the first allocation of a pooled µop; every field is
   overwritten before use. *)

let nop_inst = Inst.make Inst.Nop

let fresh_branch_rec () =
  {
    predicted_taken = false;
    predicted_target = 0;
    actual_taken = false;
    actual_next = 0;
    ras_top = -1;
    cursor_next = 0;
    fetch_mode = Normal;
    conf_high = None;
    conf_history = 0;
    wish_kind = None;
    is_return = false;
    loop_gen = 0;
    rat_ckpt = None;
    resolved = false;
    loop_class = Lc_none;
    lu = Wish_bpred.Hybrid.fresh_lbuf ();
    lu_valid = false;
    sn = Wish_bpred.Hybrid.fresh_sbuf ();
    sn_valid = false;
  }

let fresh ~branch =
  {
    id = -1;
    pc = 0;
    inst = nop_inst;
    path = Correct;
    exec_class = Ec_nop;
    byte_addr = -1;
    guard_false = false;
    guard_forwarded = false;
    is_select = false;
    is_pair_compute = false;
    consumes_trace = false;
    mode_at_fetch = Normal;
    trace_idx = -1;
    br = (if branch then Some (fresh_branch_rec ()) else None);
    fetch_cycle = 0;
    pending = 0;
    waiters = [||];
    nwaiters = 0;
    state = Waiting;
    flushed = false;
    complete_cycle = -1;
  }
