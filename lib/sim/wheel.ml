(** A calendar wheel of completion events, each an int id.

    One bucket per future cycle, indexed by [due land (horizon - 1)];
    scheduling and draining a cycle are O(1) + O(events due). Events due
    beyond the horizon (pathological bank-conflict queueing) land in an
    overflow table indexed by their *rotation number* [due / horizon]; each
    time the wheel starts a new rotation the (rare) bucket for exactly that
    rotation is swept into the slots — no linear scan over unrelated far
    events, which the old assoc-list overflow paid on every rotation.

    Buckets are growable int arrays, insertion-sorted by ascending id at
    drain time, preserving the oldest-first completion order the recovery
    logic depends on. The wheel stores no payload: the caller resolves an
    id to its µop, so a bucket holds no pointer and is emptied by resetting
    its length. *)

type buf = { mutable ids : int array; mutable len : int }

type t = {
  horizon : int;
  mask : int;
  bits : int; (* log2 horizon *)
  slots : buf array;
  overflow : (int, buf) Hashtbl.t; (* rotation number -> far events *)
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~horizon =
  if horizon <= 0 || horizon land (horizon - 1) <> 0 then
    invalid_arg "Wheel.create: horizon must be a positive power of two";
  {
    horizon;
    mask = horizon - 1;
    bits = log2 horizon;
    slots = Array.init horizon (fun _ -> { ids = [||]; len = 0 });
    overflow = Hashtbl.create 8;
  }

let horizon t = t.horizon

let push (b : buf) x =
  if b.len = Array.length b.ids then begin
    let ids = Array.make (Int.max 8 (2 * b.len)) 0 in
    Array.blit b.ids 0 ids 0 b.len;
    b.ids <- ids
  end;
  Array.unsafe_set b.ids b.len x;
  b.len <- b.len + 1

(** [schedule t ~now ~due ~id] — [due] must be > [now]. *)
let schedule t ~now ~due ~id =
  if due - now < t.horizon then push (Array.unsafe_get t.slots (due land t.mask)) id
  else begin
    let rotation = due lsr t.bits in
    let b =
      match Hashtbl.find t.overflow rotation with
      | b -> b
      | exception Not_found ->
        let b = { ids = [||]; len = 0 } in
        Hashtbl.add t.overflow rotation b;
        b
    in
    (* A far event needs its exact due cycle at sweep time: an overflow
       bucket holds two entries per event, due then id. *)
    push b due;
    push b id
  end

let sweep t ~now =
  let rotation = now lsr t.bits in
  match Hashtbl.find t.overflow rotation with
  | exception Not_found -> ()
  | b ->
    Hashtbl.remove t.overflow rotation;
    let i = ref 0 in
    while !i < b.len do
      let due = b.ids.(!i) and id = b.ids.(!i + 1) in
      push t.slots.(due land t.mask) id;
      i := !i + 2
    done

(* In-place insertion sort of a bucket by ascending id: buckets are small
   (at most issue-width events per cycle in practice). *)
let sort_buf (b : buf) =
  for i = 1 to b.len - 1 do
    let id = b.ids.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && b.ids.(!j) > id do
      b.ids.(!j + 1) <- b.ids.(!j);
      decr j
    done;
    b.ids.(!j + 1) <- id
  done

(** [drain t ~now ~f] sweeps matured overflow events at rotation start,
    then calls [f id] for every event due at [now] in ascending id order
    and empties the bucket. *)
let drain t ~now ~f =
  if now land t.mask = 0 then sweep t ~now;
  let b = Array.unsafe_get t.slots (now land t.mask) in
  if b.len > 0 then begin
    sort_buf b;
    (* [f] may schedule new events; none can land in this slot (every new
       due is > now), so iterating by index is safe. *)
    let n = b.len in
    for i = 0 to n - 1 do
      f (Array.unsafe_get b.ids i)
    done;
    b.len <- 0
  end

(** [clear t] empties every bucket for pooled reuse. *)
let clear t =
  Array.iter (fun b -> b.len <- 0) t.slots;
  Hashtbl.reset t.overflow
