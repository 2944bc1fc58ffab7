(** Persistent, content-addressed, crash-safe artifact cache. See the
    interface for the contract; on-disk layout:

    {v
    <root>/<kind>/<md5-of-key>.bin   header | payload | footer
                                     (the lab's kinds: summary/, binary/)
    <root>/quarantine/<kind>_<file>  corrupt entries, moved aside on detection
    <root>/journal.log               append-only completed-job-key journal
    <root>/lease/<md5-of-key>        pid of the process computing that key
    v}

    An entry is [header ^ payload ^ footer] where the header is a
    fixed-width version stamp, the payload is the marshalled value, and
    the footer records the payload's MD5 and byte length. A reader
    verifies the footer before deserializing a single payload byte, so a
    torn write, a bit flip, or a length truncation is detected and the
    file quarantined — never returned as data. *)

module Faultpoint = Wish_util.Faultpoint

let fp_write_torn =
  Faultpoint.register "cache.write.torn"
    ~doc:"a cache artifact reaches its final name with only half its payload and no footer (torn write)"

let fp_write_corrupt =
  Faultpoint.register "cache.write.corrupt"
    ~doc:"one payload byte of a cache artifact is flipped on the way to disk (checksum mismatch)"

let fp_journal_torn =
  Faultpoint.register "cache.journal.torn"
    ~doc:"a journal append crashes halfway through its line"

type t = { root : string; version : int }

(* Bump whenever a marshalled payload's in-memory type changes shape or
   the file layout changes (v2: chunked packed trace representation;
   v3: integrity footer + completion journal; v4: sampled summaries
   carry whole-run wish_retired/wish_loop_retired; v5: the lab stores no
   trace, so [prune] evicts the v4 [trace/] files as stale; v6: summaries
   are keyed by binary digest, and [binary/] replaces [shape/]; v7: a
   summary's counters are one [Counters.t] array, not a named bag).
   Stale entries self-evict via the header check. *)
let format_version = 7

let default_dir () =
  match Sys.getenv_opt "WISH_CACHE_DIR" with Some d when d <> "" -> d | _ -> "_wishcache"

let create ?dir ?(version = format_version) () =
  { root = Option.value dir ~default:(default_dir ()); version }

let dir t = t.root
let quarantine_dir t = Filename.concat t.root "quarantine"

(* [No_sharing]: equal values built along different paths digest alike. *)
let digest_of v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* One subdirectory per entry kind keeps the directory browsable and lets
   [clear] stay a simple recursive walk. *)
let path t ~kind ~key =
  Filename.concat (Filename.concat t.root kind) (Digest.to_hex (Digest.string key) ^ ".bin")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* The header and footer are fixed-width text so that a version or
   integrity check never has to deserialize untrusted-format payload
   bytes. *)
let header t = Printf.sprintf "WISHCACHE %08d\n" t.version
let header_len = String.length (header { root = ""; version = 0 })
let footer ~payload = Printf.sprintf "WISHSUM %s %012d\n" (Digest.to_hex (Digest.string payload)) (String.length payload)
let footer_len = String.length (footer ~payload:"")

type status =
  | Entry_ok
  | Entry_stale of int (* written by this other format version *)
  | Entry_corrupt of string (* human-readable reason *)

(* Classify an open entry channel and, when the entry is intact, return
   the payload string alongside. Reads the whole file but never
   unmarshals. *)
let classify t ic =
  let len = in_channel_length ic in
  if len < header_len then (Entry_corrupt "shorter than the header", None)
  else
    match really_input_string ic header_len with
    | exception End_of_file -> (Entry_corrupt "truncated header", None)
    | h -> (
      match Scanf.sscanf_opt h "WISHCACHE %08d\n" Fun.id with
      | None -> (Entry_corrupt "unrecognized header", None)
      | Some v when v <> t.version -> (Entry_stale v, None)
      | Some _ ->
        let body_len = len - header_len in
        if body_len < footer_len then (Entry_corrupt "shorter than the footer", None)
        else begin
          let payload_len = body_len - footer_len in
          match really_input_string ic payload_len with
          | exception End_of_file -> (Entry_corrupt "truncated payload", None)
          | payload -> (
            match really_input_string ic footer_len with
            | exception End_of_file -> (Entry_corrupt "truncated footer", None)
            | f ->
              if f = footer ~payload then (Entry_ok, Some payload)
              else if String.length f >= 7 && String.sub f 0 7 = "WISHSUM" then
                (Entry_corrupt "payload does not match its footer checksum", None)
              else (Entry_corrupt "missing footer (torn write)", None))
        end)

(* Move a corrupt entry aside (best-effort) so it is inspectable but
   never re-examined; concurrent detectors race benignly on the rename. *)
let quarantine t file ~kind =
  let qdir = quarantine_dir t in
  mkdir_p qdir;
  let dest = Filename.concat qdir (kind ^ "_" ^ Filename.basename file) in
  try Sys.rename file dest with Sys_error _ -> ( try Sys.remove file with Sys_error _ -> ())

let find t ~kind ~key =
  let file = path t ~kind ~key in
  match open_in_bin file with
  | exception Sys_error _ -> None
  | ic -> (
    let status, payload = (try classify t ic with Sys_error _ -> (Entry_corrupt "read error", None)) in
    close_in_noerr ic;
    match (status, payload) with
    | Entry_ok, Some payload -> (
      match Marshal.from_string payload 0 with
      | v -> Some v
      | exception _ ->
        (* Checksum intact but unmarshalling failed: the payload was
           written by an incompatible runtime; treat as corrupt. *)
        quarantine t file ~kind;
        None)
    | Entry_stale _, _ ->
      (* Stale format: evict so it is not re-examined (the version bump
         already says its meaning changed; nothing to inspect). *)
      (try Sys.remove file with Sys_error _ -> ());
      None
    | (Entry_corrupt _ | Entry_ok), _ ->
      quarantine t file ~kind;
      None)

(* Unique temp names even for two domains of one process racing on the
   same key: pid + a process-global counter. The final [Sys.rename] is
   atomic on POSIX, so concurrent writers can at worst waste work —
   readers only ever observe a complete old or complete new entry. *)
let tmp_counter = Atomic.make 0

let store t ~kind ~key v =
  let file = path t ~kind ~key in
  try
    mkdir_p (Filename.dirname file);
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ()) (Atomic.fetch_and_add tmp_counter 1)
    in
    let payload = Marshal.to_string v [] in
    let oc = open_out_bin tmp in
    output_string oc (header t);
    if Faultpoint.fires fp_write_torn then
      (* Simulated crash mid-write that still reaches the final name (a
         legacy non-atomic writer, a lying disk): half the payload, no
         footer. The reader's footer check must catch it. *)
      output_string oc (String.sub payload 0 (String.length payload / 2))
    else if Faultpoint.fires fp_write_corrupt then begin
      (* Simulated bit rot: flip one payload byte under an honest footer. *)
      let b = Bytes.of_string payload in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      output_string oc (Bytes.to_string b);
      output_string oc (footer ~payload)
    end
    else begin
      output_string oc payload;
      output_string oc (footer ~payload)
    end;
    close_out oc;
    Sys.rename tmp file
  with Sys_error _ | Unix.Unix_error _ -> ()

(* --------------------------------------------------------------- *)
(* Completion journal                                               *)
(* --------------------------------------------------------------- *)

let journal_path t = Filename.concat t.root "journal.log"

(* Append-only: one [version|md5(key)|key] line per completed job. A
   line is written with a single [output_string] on an O_APPEND channel;
   a crash can at worst tear the final line. The per-line digest makes a
   torn fragment detectable — without it, a truncated key would still
   parse as a (different, shorter) valid key — so [journal_load] skips
   it, and the next append newline-terminates it (see below). *)
let journal_append t key =
  try
    mkdir_p t.root;
    let file = journal_path t in
    (* If the previous writer crashed mid-line, terminate the fragment so
       this entry starts on a fresh line. *)
    let needs_nl =
      match open_in_bin file with
      | exception Sys_error _ -> false
      | ic ->
        let len = in_channel_length ic in
        let v =
          len > 0
          &&
          (seek_in ic (len - 1);
           input_char ic <> '\n')
        in
        close_in_noerr ic;
        v
    in
    let line = Printf.sprintf "%d|%s|%s\n" t.version (Digest.to_hex (Digest.string key)) key in
    let line = if needs_nl then "\n" ^ line else line in
    let line =
      if Faultpoint.fires fp_journal_torn then String.sub line 0 (String.length line / 2)
      else line
    in
    let oc = open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 file in
    output_string oc line;
    close_out oc
  with Sys_error _ | Unix.Unix_error _ -> ()

let journal_load t =
  let keys = Hashtbl.create 256 in
  (match open_in_bin (journal_path t) with
  | exception Sys_error _ -> ()
  | ic ->
    let prefix = string_of_int t.version ^ "|" in
    let plen = String.length prefix in
    (try
       while true do
         let line = input_line ic in
         (* Torn fragments, stale-version lines, and digest mismatches
            are simply not keys. *)
         if String.length line > plen + 33 && String.sub line 0 plen = prefix then begin
           let digest = String.sub line plen 32 in
           let key = String.sub line (plen + 33) (String.length line - plen - 33) in
           if
             line.[plen + 32] = '|'
             && String.equal digest (Digest.to_hex (Digest.string key))
           then Hashtbl.replace keys key ()
         end
       done
     with End_of_file -> ());
    close_in_noerr ic);
  keys

let journal_clear t = try Sys.remove (journal_path t) with Sys_error _ -> ()

(* --------------------------------------------------------------- *)
(* Leases                                                           *)
(* --------------------------------------------------------------- *)

let lease_dir t = Filename.concat t.root "lease"
let lease_path t key = Filename.concat (lease_dir t) (Digest.to_hex (Digest.string key))

(* The pid a lease names; [None] once it has been released. *)
let holder file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> int_of_string_opt (String.trim s)

(* [kill pid 0] probes without signalling; only ESRCH means "no such
   process" (EPERM is a live process we may not signal). *)
let alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* The pid is written to a private temp file first, which is then hard
   linked to the lease name: [link] fails with EEXIST atomically, so a
   lease is never seen without its pid. *)
let rec try_lease t ~key =
  let file = lease_path t key in
  let me = Unix.getpid () in
  match
    mkdir_p (lease_dir t);
    let tmp = Printf.sprintf "%s.tmp.%d.%d" file me (Atomic.fetch_and_add tmp_counter 1) in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc (string_of_int me));
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () -> Unix.link tmp file)
  with
  | () -> true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
    match holder file with
    | Some pid when pid = me -> true
    | Some pid when alive pid -> false
    | _ -> (
      (* Two waiters taking over the same dead holder's lease at once may
         both win; the cost is one duplicated job, never a wrong result. *)
      match Unix.unlink file with
      | () | (exception Unix.Unix_error (Unix.ENOENT, _, _)) -> try_lease t ~key
      | exception Unix.Unix_error _ -> true))
  | exception (Unix.Unix_error _ | Sys_error _) ->
    (* A cache that cannot hold leases coalesces nothing: run the job. *)
    true

let release_lease t ~key =
  let file = lease_path t key in
  if holder file = Some (Unix.getpid ()) then try Sys.remove file with Sys_error _ -> ()

(* --------------------------------------------------------------- *)
(* Maintenance: scan / prune                                        *)
(* --------------------------------------------------------------- *)

(* Apply [f ~kind ~name file] to every entry file. Every subdirectory of
   the root holds entries of one kind, except the quarantine and the
   leases. *)
let iter_entries t f =
  if Sys.file_exists t.root && Sys.is_directory t.root then
    Array.iter
      (fun kind ->
        let kdir = Filename.concat t.root kind in
        if kind <> "quarantine" && kind <> "lease" && Sys.is_directory kdir then
          Array.iter
            (fun name ->
              if Filename.check_suffix name ".bin" then f ~kind ~name (Filename.concat kdir name))
            (Sys.readdir kdir))
      (Sys.readdir t.root)

let scan t =
  let entries = ref [] in
  iter_entries t (fun ~kind ~name file ->
      let status =
        match open_in_bin file with
        | exception Sys_error _ -> Entry_corrupt "unreadable"
        | ic ->
          let s = try fst (classify t ic) with Sys_error _ -> Entry_corrupt "read error" in
          close_in_noerr ic;
          s
      in
      entries := (Filename.concat kind name, status) :: !entries);
  List.sort (fun (a, _) (b, _) -> compare a b) !entries

type prune_report = { kept : int; evicted_stale : int; quarantined : int }

type verify_report = {
  v_entries : (string * status) list;
  v_ok : int;
  v_stale : int;
  v_quarantined : int;
}

(* Health check with teeth: corrupt entries are quarantined on sight — a
   later lookup would do the same, but CI wants the cache clean at gate
   time. Stale-format entries are only reported: they are normal after a
   format bump and [prune] owns their eviction. *)
let verify t =
  let entries = scan t in
  let ok = ref 0 and stale = ref 0 and quarantined = ref 0 in
  List.iter
    (fun (rel, status) ->
      match status with
      | Entry_ok -> incr ok
      | Entry_stale _ -> incr stale
      | Entry_corrupt _ ->
        quarantine t (Filename.concat t.root rel) ~kind:(Filename.basename (Filename.dirname rel));
        incr quarantined)
    entries;
  { v_entries = entries; v_ok = !ok; v_stale = !stale; v_quarantined = !quarantined }

type stats = {
  st_entries : int;
  st_bytes : int;
  st_by_version : (int * int * int) list;
  st_unrecognized : int;
  st_quarantined : int;
  st_journal_keys : int;
}

(* Observability twin of [scan], cheap enough for interactive use: only
   the fixed-width header of each entry is read (never the payload), so
   the cost is one open + small read + stat per entry. *)
let stats t =
  let by_version : (int, int * int) Hashtbl.t = Hashtbl.create 4 in
  let entries = ref 0 and bytes = ref 0 and unrecognized = ref 0 in
  iter_entries t (fun ~kind:_ ~name:_ file ->
      match open_in_bin file with
      | exception Sys_error _ -> incr unrecognized
      | ic ->
        let len = in_channel_length ic in
        let version =
          if len < header_len then None
          else
            match really_input_string ic header_len with
            | exception End_of_file -> None
            | h -> Scanf.sscanf_opt h "WISHCACHE %08d\n" Fun.id
        in
        close_in_noerr ic;
        incr entries;
        bytes := !bytes + len;
        match version with
        | None -> incr unrecognized
        | Some v ->
          let n, b = Option.value (Hashtbl.find_opt by_version v) ~default:(0, 0) in
          Hashtbl.replace by_version v (n + 1, b + len));
  let quarantined =
    match Sys.readdir (quarantine_dir t) with
    | files -> Array.length files
    | exception Sys_error _ -> 0
  in
  {
    st_entries = !entries;
    st_bytes = !bytes;
    st_by_version =
      Hashtbl.fold (fun v (n, b) acc -> (v, n, b) :: acc) by_version []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare b a);
    st_unrecognized = !unrecognized;
    st_quarantined = quarantined;
    st_journal_keys = Hashtbl.length (journal_load t);
  }

let prune t =
  List.fold_left
    (fun acc (rel, status) ->
      let file = Filename.concat t.root rel in
      match status with
      | Entry_ok -> { acc with kept = acc.kept + 1 }
      | Entry_stale _ ->
        (try Sys.remove file with Sys_error _ -> ());
        { acc with evicted_stale = acc.evicted_stale + 1 }
      | Entry_corrupt _ ->
        quarantine t file ~kind:(Filename.basename (Filename.dirname rel));
        { acc with quarantined = acc.quarantined + 1 })
    { kept = 0; evicted_stale = 0; quarantined = 0 }
    (scan t)

let clear t =
  let rec rm d =
    Array.iter
      (fun name ->
        let p = Filename.concat d name in
        if Sys.is_directory p then begin
          rm p;
          try Sys.rmdir p with Sys_error _ -> ()
        end
        else try Sys.remove p with Sys_error _ -> ())
      (Sys.readdir d)
  in
  if Sys.file_exists t.root && Sys.is_directory t.root then rm t.root
