(** Front-end wish-branch hardware (paper Section 3.5):

    - the three-mode state machine of Figure 8 (normal / high-confidence /
      low-confidence);
    - the predicate-dependency-elimination buffer of Section 3.5.3 — in
      high-confidence mode the wish branch's predicate (and its
      complement, tracked from the producing compare at decode) is
      forwarded as a predicted value so guarded instructions need not
      wait;
    - the per-static-wish-loop last-prediction buffer of Section 3.5.4,
      extended with a visit-generation counter to classify early-exit /
      late-exit / no-exit correctly across loop re-entry (the paper's
      footnote-8 case). *)

type t

val create : unit -> t
val mode : t -> Uop.mode

(** Full reset on a branch-misprediction signal (pipeline flush). The
    complement map survives (it mirrors decoded compares). *)
val reset : t -> unit

(** [on_decode_writes t pregs ~complement_pair] — decoding an instruction
    that writes a predicate register invalidates its forwarded value; a
    two-destination compare also refreshes the complement map. *)
val on_decode_writes :
  t -> Wish_isa.Reg.preg list -> complement_pair:(Wish_isa.Reg.preg * Wish_isa.Reg.preg) option -> unit

(** Allocation-free decode primitives for the compiled core's pre-decoded
    templates: [decode_write] invalidates one written predicate register;
    [set_complement] records a compare's two-destination pair. *)
val decode_write : t -> Wish_isa.Reg.preg -> unit

val set_complement : t -> pt:Wish_isa.Reg.preg -> pf:Wish_isa.Reg.preg -> unit

(** [forwarded_value t p] — [Some v] if the buffer predicts predicate [p]. *)
val forwarded_value : t -> Wish_isa.Reg.preg -> bool option

(** [forwarded_code t p] — [-1] when no prediction exists for [p], else
    [0]/[1] for false/true (allocation-free {!forwarded_value}). *)
val forwarded_code : t -> Wish_isa.Reg.preg -> int

(** [on_fetch_pc t ~pc] — the "target fetched" exit from low-confidence
    mode. Call for every fetched pc before decoding it. *)
val on_fetch_pc : t -> pc:int -> unit

(** [on_wish_branch t ~kind ~pc ~target ~conf_high ~predictor_dir ~guard]
    applies the Figure 8 mode transition for a fetched wish branch and
    returns the direction the front end follows (forced not-taken in the
    predicated cases). Requires wish hardware. *)
val on_wish_branch :
  t ->
  kind:Wish_isa.Inst.branch_kind ->
  pc:int ->
  target:int ->
  conf_high:bool ->
  predictor_dir:bool ->
  guard:Wish_isa.Reg.preg ->
  bool

(** Current mode as the {!Plan} transition-table code: 0 normal / 1 high /
    2 low. *)
val mode_code : t -> int

(** [apply_packed t ~packed ~pc ~target ~guard] — apply one compiled
    wish-FSM transition-table entry (see {!Plan.wish_table} for the
    encoding); returns the followed direction. *)
val apply_packed :
  t -> packed:int -> pc:int -> target:int -> guard:Wish_isa.Reg.preg -> bool

(** [loop_generation t ~pc] — the front end's current visit generation for
    a static wish loop; a predicted exit starts a new visit. *)
val loop_generation : t -> pc:int -> int

(** [record_loop_prediction t ~pc ~dir] updates the last front-end
    prediction for a static wish loop, bumping the generation on a
    predicted exit and leaving low-confidence mode when its loop exits. *)
val record_loop_prediction : t -> pc:int -> dir:bool -> unit

(** [last_loop_prediction t ~pc] — [(generation, last predicted dir)]. *)
val last_loop_prediction : t -> pc:int -> (int * bool) option

(** [last_loop_gen t ~pc] — the recorded generation, or [-1] when no
    prediction exists (allocation-free {!last_loop_prediction}). *)
val last_loop_gen : t -> pc:int -> int

(** [last_loop_dir t ~pc] — the last recorded direction; meaningful only
    when {!last_loop_gen} is non-negative. *)
val last_loop_dir : t -> pc:int -> bool
