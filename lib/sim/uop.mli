(** µops in flight, and the per-branch recovery record.

    Renaming uses producer identifiers: a register alias table maps each
    architectural register to the sequence number of its youngest
    in-flight producer; a µop's sources are the producer ids it must wait
    for — the same dependence timing as a physical register file, without
    managing one.

    Fields are mutable because dead µops are pooled and reinitialized by
    {!Compiled} rather than reallocated. Identity lives in [id]: fresh and
    monotone per (re)initialization, so stale ids held by schedulers miss
    the in-flight table once a µop is recycled. *)

type path =
  | Correct  (** matches the oracle trace *)
  | Wrong  (** fetched past a misprediction; will be squashed *)
  | Phantom  (** wish-loop extra iterations: architectural NOPs that retire *)

(** Front-end mode of Figure 8. *)
type mode = Normal | High_conf | Low_conf

type exec_class = Ec_nop | Ec_alu | Ec_mul | Ec_load | Ec_store | Ec_ctrl
type state = Waiting | In_ready_queue | Issued | Done

(** Wish-loop low-confidence misprediction classes (paper Section 3.2). *)
type loop_class = Lc_none | Lc_early | Lc_late | Lc_no_exit

type branch_rec = {
  mutable predicted_taken : bool;
  mutable predicted_target : int;
  mutable actual_taken : bool;  (** oracle direction; = predicted for wrong-path *)
  mutable actual_next : int;  (** architectural successor pc *)
  mutable ras_top : int;
  mutable cursor_next : int;  (** oracle cursor right after this branch *)
  mutable fetch_mode : mode;
  mutable conf_high : bool option;  (** Some for wish branches under wish hardware *)
  mutable conf_history : int;  (** global history at fetch, for JRS training *)
  mutable wish_kind : Wish_isa.Inst.branch_kind option;  (** None for jump/call/return *)
  mutable is_return : bool;
  mutable loop_gen : int;  (** wish-loop visit generation at fetch *)
  mutable loop_class : loop_class;
  lu : Wish_bpred.Hybrid.lbuf;
      (** the direction predictor's probe at fetch, refilled in place *)
  mutable lu_valid : bool;  (** [lu] holds this branch's probe (conditional branches) *)
  sn : Wish_bpred.Hybrid.sbuf;  (** the undo record of this branch's history shift *)
  mutable sn_valid : bool;  (** [sn] undoes a shift (conditional branches) *)
}

type t = {
  mutable id : int;
  mutable pc : int;
  mutable path : path;
  mutable exec_class : exec_class;
  mutable byte_addr : int;  (** memory byte address, or -1 *)
  mutable guard_false : bool;  (** oracle: this µop is an architectural NOP *)
  mutable guard_forwarded : bool;  (** predicate-dependency elimination applied *)
  mutable is_select : bool;  (** the select µop of the select-µop mechanism *)
  mutable is_pair_compute : bool;  (** the computation half of a select-µop pair *)
  mutable trace_idx : int;  (** oracle trace entry consumed at fetch, or -1 *)
  br : branch_rec option;
      (** pooled identity: [Some] forever on branch µops, [None] on plain ones *)
  mutable fetch_cycle : int;
  mutable pending : int;  (** outstanding producers *)
  mutable waiters : int array;  (** µop ids to wake on completion... *)
  mutable nwaiters : int;  (** ...the first [nwaiters] slots are live *)
  mutable state : state;
  mutable flushed : bool;
}

(** [mispredicted b] — followed direction wrong, or (returns) target
    wrong. *)
val mispredicted : branch_rec -> bool

(** [add_waiter u id] appends [id] to [u]'s waiter array (amortized
    allocation-free: the array persists across the µop's recycles). *)
val add_waiter : t -> int -> unit

(** [fresh ~branch] — a blank µop for the pool's first allocation; every
    field is reinitialized before use. [branch] decides whether it carries
    a (likewise blank) [branch_rec]. *)
val fresh : branch:bool -> t
