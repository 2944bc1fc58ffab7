(** Correct-path traces.

    The trace is the emulator's predicate-through execution recorded one
    entry per retired instruction (NOP-guarded entries included). It plays
    the role of the paper's Pin-generated IA-64 traces: the oracle that
    directs the timing simulator's correct-path fetch.

    Storage is a sequence of fixed-capacity chunks, each packing one entry
    into a single 63-bit word (pc, next-pc delta, address, guard/taken
    bits) — about 3x smaller than the previous struct-of-arrays layout,
    and growing by appending a chunk instead of copying the whole trace.
    A trace is either *materialized* (every chunk retained, the classic
    mode, marshal-safe for the artifact cache) or *streaming*: chunks are
    generated on demand from a paused emulator and recycled once the
    consumer {!release}s them, so resident memory stays bounded by the
    consumer's look-back window however long the run is. *)

open Wish_isa

(* Packed entry word (63 usable bits):
     bit  0         guard_true
     bit  1         taken
     bit  2         escape: fields live in the chunk's [wide] table
     bits 3..23     pc                      (21 bits)
     bits 24..36    next_pc - pc + 4096     (13-bit biased delta)
     bits 37..62    addr + 1                (26 bits; 0 = no address)
   Entries whose fields overflow these widths (never the case for our
   kernel-sized code images, but the format must not silently corrupt)
   set the escape bit and store the triple in a per-chunk side table. *)

let delta_bias = 4096

let fits ~pc ~next_pc ~addr =
  pc < 1 lsl 21
  && (let d = next_pc - pc + delta_bias in
      d >= 0 && d < 1 lsl 13)
  && addr >= -1
  && addr + 1 < 1 lsl 26

let pack ~guard_true ~taken ~pc ~next_pc ~addr =
  (if guard_true then 1 else 0)
  lor (if taken then 2 else 0)
  lor (pc lsl 3)
  lor ((next_pc - pc + delta_bias) lsl 24)
  lor ((addr + 1) lsl 37)

type chunk = {
  mutable base : int; (* absolute index of entry 0 *)
  mutable clen : int;
  words : int array; (* fixed capacity; reused across recycles *)
  wide : (int, int * int * int) Hashtbl.t; (* abs index -> pc, next_pc, addr *)
}

(* The paused emulator a streaming trace pulls entries from. Holds the
   compiled form of the image (closures — which Marshal rejects, but a
   *finished* trace, the only kind the artifact cache stores, has dropped
   its gen) plus the single out-record all refills reuse. *)
type gen = {
  g_state : State.t;
  g_fuel : int;
  g_out : Exec.out;
  g_compiled : Compiled.t;
  mutable g_sink : (Exec.out -> unit) option; (* built on first refill *)
}

type t = {
  cbits : int;
  cmask : int;
  retain : bool; (* materialized: never recycle chunks *)
  mutable total : int; (* entries generated so far *)
  mutable dir : chunk array; (* slot k holds chunk index dir_base + k *)
  mutable dir_base : int;
  mutable ndir : int;
  mutable free : chunk list; (* recycled buffers awaiting reuse *)
  mutable gen : gen option; (* None once the emulator halted *)
  mutable peak : int; (* peak resident entries *)
  mutable hole : chunk option; (* shared placeholder for skipped slots *)
  mutable sealed : bool; (* refuse to pull the gen (worker-domain phase) *)
}

let default_chunk_bits = 15

let dummy_chunk = { base = -1; clen = 0; words = [||]; wide = Hashtbl.create 1 }

let create ?(chunk_bits = default_chunk_bits) ?(hint = 0) ~retain ~gen () =
  let csize = 1 lsl chunk_bits in
  let dir_cap = max 4 ((hint + csize - 1) / csize) in
  {
    cbits = chunk_bits;
    cmask = csize - 1;
    retain;
    total = 0;
    dir = Array.make dir_cap dummy_chunk;
    dir_base = 0;
    ndir = 0;
    free = [];
    gen;
    peak = 0;
    hole = None;
    sealed = false;
  }

let length t = t.total
let finished t = t.gen = None
let is_streaming t = not t.retain
let chunk_capacity t = t.cmask + 1

let resident_entries t = t.total - (t.dir_base lsl t.cbits)
let peak_resident_entries t = t.peak

(* Retained buffer footprint in words, directory and free list included. *)
let resident_words t =
  ((t.ndir + List.length t.free) * (t.cmask + 1)) + Array.length t.dir

let fresh_chunk t base =
  match t.free with
  | c :: rest ->
    t.free <- rest;
    c.base <- base;
    c.clen <- 0;
    if Hashtbl.length c.wide > 0 then Hashtbl.reset c.wide;
    c
  | [] ->
    { base; clen = 0; words = Array.make (t.cmask + 1) 0; wide = Hashtbl.create 0 }

let append_dir t c =
  if t.ndir = Array.length t.dir then begin
    let bigger = Array.make (2 * max 1 t.ndir) dummy_chunk in
    Array.blit t.dir 0 bigger 0 t.ndir;
    t.dir <- bigger
  end;
  t.dir.(t.ndir) <- c;
  t.ndir <- t.ndir + 1

let append_chunk t =
  let c = fresh_chunk t t.total in
  append_dir t c;
  c

(* The shared placeholder chunk occupying directory slots whose entries
   were executed fused (never recorded). It is never written, never
   recycled into the free list, and — by the consumer contract that only
   recorded indices are read — never decoded. One zeroed buffer serves
   every skipped slot. *)
let hole_chunk t =
  match t.hole with
  | Some c -> c
  | None ->
    let c = { base = -1; clen = 0; words = Array.make (t.cmask + 1) 0; wide = Hashtbl.create 1 } in
    t.hole <- Some c;
    c

let is_hole t c = match t.hole with Some h -> h == c | None -> false

(* [skip_to t i] — streaming only: declare entries [total, i) as executed
   but never to be recorded (the fused warming path consumed them as they
   ran). Fully skipped directory slots get the shared hole chunk; when
   [i] lands mid-chunk, that slot gets a real chunk so [push_out] can
   resume into it (entries of the slot below [i] stay garbage, which the
   contract already permits for sub-chunk [release] windows). *)
let skip_to t i =
  if t.retain then invalid_arg "Trace.skip_to: materialized traces record every entry";
  if i < t.total then invalid_arg "Trace.skip_to: cannot rewind";
  if i > t.total then begin
    let next_slot = t.dir_base + t.ndir in
    let si = i lsr t.cbits in
    let last_needed = if i land t.cmask <> 0 then si else si - 1 in
    for s = next_slot to last_needed do
      if s = si then append_dir t (fresh_chunk t (s lsl t.cbits))
      else append_dir t (hole_chunk t)
    done;
    t.total <- i
  end

(* Record one retired instruction from the shared out-record. This is the
   sink the compiled emulator drives once per instruction. *)
let push_out t (o : Exec.out) =
  let i = t.total in
  let c = if i land t.cmask = 0 then append_chunk t else t.dir.(t.ndir - 1) in
  let pc = o.Exec.o_pc and next_pc = o.Exec.o_next_pc and addr = o.Exec.o_addr in
  let w =
    if fits ~pc ~next_pc ~addr then
      pack ~guard_true:o.Exec.o_guard_true ~taken:o.Exec.o_taken ~pc ~next_pc ~addr
    else begin
      Hashtbl.replace c.wide i (pc, next_pc, addr);
      (if o.Exec.o_guard_true then 1 else 0) lor (if o.Exec.o_taken then 2 else 0) lor 4
    end
  in
  c.words.(i land t.cmask) <- w;
  c.clen <- c.clen + 1;
  t.total <- i + 1;
  let res = resident_entries t in
  if res > t.peak then t.peak <- res

(* ----------------------------------------------------------------- *)
(* Accessors                                                          *)
(* ----------------------------------------------------------------- *)

let chunk_of t i =
  let k = (i lsr t.cbits) - t.dir_base in
  if i < 0 || i >= t.total || k < 0 then
    invalid_arg
      (Printf.sprintf "Trace: index %d outside retained window [%d, %d)" i
         (t.dir_base lsl t.cbits) t.total);
  Array.unsafe_get t.dir k

let word t i = Array.unsafe_get (chunk_of t i).words (i land t.cmask)

(* Field decoders over an already-fetched packed word: the oracle's scan
   reads the word once and extracts every field it needs from the
   register, instead of one directory walk per field. Only valid when
   the escape bit is clear ([w_escaped w = false]); escaped entries must
   fall back to the single-field accessors below. *)
let w_guard_true w = w land 1 <> 0
let w_taken w = w land 2 <> 0
let w_escaped w = w land 4 <> 0
let w_pc w = (w lsr 3) land 0x1FFFFF
let w_next_pc w = ((w lsr 3) land 0x1FFFFF) + ((w lsr 24) land 0x1FFF) - delta_bias
let w_addr w = ((w lsr 37) land 0x3FFFFFF) - 1

let guard_true t i = word t i land 1 <> 0
let taken t i = word t i land 2 <> 0

(* Single-field decoders: no intermediate tuple on the oracle's
   per-entry scan path. *)

let pc t i =
  let c = chunk_of t i in
  let w = Array.unsafe_get c.words (i land t.cmask) in
  if w land 4 = 0 then (w lsr 3) land 0x1FFFFF
  else
    let p, _, _ = Hashtbl.find c.wide i in
    p

let next_pc t i =
  let c = chunk_of t i in
  let w = Array.unsafe_get c.words (i land t.cmask) in
  if w land 4 = 0 then ((w lsr 3) land 0x1FFFFF) + ((w lsr 24) land 0x1FFF) - delta_bias
  else
    let _, n, _ = Hashtbl.find c.wide i in
    n

let addr t i =
  let c = chunk_of t i in
  let w = Array.unsafe_get c.words (i land t.cmask) in
  if w land 4 = 0 then ((w lsr 37) land 0x3FFFFFF) - 1
  else
    let _, _, a = Hashtbl.find c.wide i in
    a

(** [iter_range t ~from ~until ~f] — decode entries [from, until) in one
    pass: the chunk is resolved once per chunk and each packed word is
    read exactly once, instead of one [chunk_of] per field per entry as
    the single-field accessors pay. This is the functional-warming fast
    path of sampled simulation. Entries must already be available
    (see {!ensure}) and still retained. *)
let iter_range t ~from ~until ~f =
  if until > from then begin
    (* Bounds-check the range ends once; unsafe reads inside. *)
    ignore (chunk_of t from);
    ignore (chunk_of t (until - 1));
    let i = ref from in
    while !i < until do
      let c = chunk_of t !i in
      let stop = min until (((!i lsr t.cbits) + 1) lsl t.cbits) in
      for j = !i to stop - 1 do
        let w = Array.unsafe_get c.words (j land t.cmask) in
        let guard_true = w land 1 <> 0 and taken = w land 2 <> 0 in
        if w land 4 = 0 then
          f j ~pc:((w lsr 3) land 0x1FFFFF) ~guard_true ~taken
            ~addr:(((w lsr 37) land 0x3FFFFFF) - 1)
        else
          let p, _, a = Hashtbl.find c.wide j in
          f j ~pc:p ~guard_true ~taken ~addr:a
      done;
      i := stop
    done
  end

(* ----------------------------------------------------------------- *)
(* Generation                                                         *)
(* ----------------------------------------------------------------- *)

exception Out_of_fuel = Exec.Out_of_fuel

let gen_sink t g =
  match g.g_sink with
  | Some s -> s
  | None ->
    let s o = push_out t o in
    g.g_sink <- Some s;
    s

(** [ensure t i] makes entry [i] available, pulling the paused emulator
    forward as needed; [false] means the trace ends before [i]. The
    compiled emulator advances in basic-block units, so a refill may
    record a few entries past [i] (bounded by the longest block). *)
let ensure t i =
  if i < t.total then true
  else
    match t.gen with
    | None -> false
    | Some g ->
      if t.sealed then
        failwith
          (Printf.sprintf
             "Trace.ensure: entry %d requested while sealed (a measurement window out-read its \
              pre-recorded margin of %d entries)"
             i t.total);
      let st = g.g_state in
      (* The gen's state only ever advances through this trace, so
         [st.retired] = [t.total] and a retired-count target is an
         entry-count target. *)
      if t.total <= i && not st.State.halted then
        Compiled.run g.g_compiled st g.g_out ~sink:(gen_sink t g) ~fuel:g.g_fuel
          ~steps:(i + 1 - t.total);
      if st.halted then t.gen <- None;
      i < t.total

(** [release t i] declares every entry below [i] dead: the consumer will
    never look at them again (not even through a misprediction-recovery
    rewind). Streaming traces recycle the chunks they fully cover;
    materialized traces ignore the call. *)
let release t i =
  if not t.retain then
    while t.ndir > 1 && (t.dir_base + 1) lsl t.cbits <= i do
      let dead = t.dir.(0) in
      Array.blit t.dir 1 t.dir 0 (t.ndir - 1);
      t.ndir <- t.ndir - 1;
      t.dir.(t.ndir) <- dummy_chunk;
      t.dir_base <- t.dir_base + 1;
      (* The shared hole placeholder may occupy many slots at once; it
         must never enter the free list (a recycle would write it). *)
      if not (is_hole t dead) then t.free <- dead :: t.free
    done

(** [set_sealed t flag] — while sealed, an {!ensure} that would need the
    paused emulator raises [Failure] instead of pulling it. The sampled
    coordinator seals the trace while measurement windows run (on worker
    domains the generator's state is not theirs to advance), so a window
    out-reading its pre-recorded margin fails loudly instead of racing
    the generator or silently diverging. *)
let set_sealed t flag = t.sealed <- flag

(** [warm_to t ~hooks ~until] — the trace-free warming driver: advance
    the paused emulator to exactly [until] retired instructions, feeding
    each retired instruction's facts to [hooks.(pc)] instead of recording
    a trace entry, then mark the skipped range with {!skip_to}. Streaming
    traces only. Returns the new {!length} ([until], or less if the
    program halts or was already past it — the invariant
    [gen.retired = total] is preserved either way). Raises
    {!Out_of_fuel} at exactly the instruction the recording path would. *)
let warm_to t ~hooks ~until =
  if t.retain then invalid_arg "Trace.warm_to: materialized traces record every entry";
  (match t.gen with
  | None -> ()
  | Some g ->
    let st = g.g_state in
    if until > t.total && not st.State.halted then begin
      Compiled.run_hooked g.g_compiled st g.g_out ~hooks ~fuel:g.g_fuel
        ~steps:(until - t.total);
      skip_to t st.State.retired;
      if st.State.halted then t.gen <- None
    end);
  t.total

let no_hook = Compiled.no_sink

let default_fuel = 200_000_000

let mk_gen ?(fuel = default_fuel) program =
  {
    g_state = State.create program;
    g_fuel = fuel;
    g_out = Exec.make_out ();
    g_compiled = Compiled.compile ~mode:Exec.Predicate_through (Program.code program);
    g_sink = None;
  }

(** [generate ?fuel ?hint program] runs the emulator in predicate-through
    mode to completion and records the materialized trace. [hint] (an
    approximate dynamic length, e.g. {!Wish_workloads.Bench} knows one)
    pre-sizes the chunk directory. Returns the trace and the final
    architectural state (whose {!State.outcome} must equal the
    architectural-mode outcome — a property the test suite checks). *)
let generate ?fuel ?hint program =
  let g = mk_gen ?fuel program in
  let t = create ?hint ~retain:true ~gen:(Some g) () in
  Compiled.run_to_halt g.g_compiled g.g_state g.g_out ~sink:(gen_sink t g) ~fuel:g.g_fuel;
  t.gen <- None;
  (* A finished materialized trace may be marshalled into the artifact
     cache: drop any recycled buffers so they are not serialized. *)
  t.free <- [];
  (t, g.g_state)

(** [stream ?fuel ?chunk_bits program] — a lazily generated trace whose
    chunks are recycled as the consumer {!release}s them. [chunk_bits]
    sizes chunks at [2^chunk_bits] entries (tests shrink it to force
    entries of interest across chunk boundaries). *)
let stream ?fuel ?chunk_bits program =
  create ?chunk_bits ~retain:false ~gen:(Some (mk_gen ?fuel program)) ()
