(** Persistent, content-addressed, crash-safe artifact cache for the
    experiment lab.

    Entries live one-per-file under a cache directory, one subdirectory
    per kind (the lab writes [summary/] and [binary/]), named by the MD5
    digest of a caller-supplied key string (bench name, input, scale,
    binary digest, machine-configuration digest, …). Values are stored
    with [Marshal] between a versioned header and an integrity footer
    recording the payload's MD5 and byte length:

    - bumping the format version turns every existing entry into a miss
      (the stale file is deleted on the way, never deserialized) — the
      invalidation story when the simulator/compiler change what the
      cached values mean;
    - a corrupt or truncated entry (torn write, bit flip, short read)
      fails the footer check {e before} any payload byte is
      deserialized; the file is moved to [<dir>/quarantine/] for
      inspection and the lookup degrades to a miss, so the value is
      transparently recomputed.

    Writes go through a uniquely named temp file (pid + process-global
    counter) and an atomic [rename], so crashed or concurrent writers —
    processes sharing the directory, or two domains of one process
    racing on the same key — can at worst waste work: readers only ever
    observe a complete entry. Nothing else coordinates processes on one
    directory: each computes what it misses.

    The cache also hosts a small append-only {e journal} of completed
    job keys ({!journal_append}/{!journal_load}). The lab neither writes
    nor reads it (the cache alone makes an interrupted batch resumable);
    bench/perf's traced pass still appends to it. Lines are
    version-stamped and checksummed like entries, and a line torn by a
    crash is skipped on load and newline-terminated by the next append.

    Chaos-test injection sites: [cache.write.torn],
    [cache.write.corrupt], [cache.journal.torn]
    (see {!Wish_util.Faultpoint}). *)

type t

(** Current on-disk format version. Bump when the meaning or layout of
    cached values changes. *)
val format_version : int

(** Default cache directory ["_wishcache"], overridable with the
    [WISH_CACHE_DIR] environment variable. *)
val default_dir : unit -> string

(** [create ?dir ?version ()] — open (and lazily create) a cache rooted
    at [dir]. [version] defaults to {!format_version}; passing another
    value is mainly for tests of the invalidation path. *)
val create : ?dir:string -> ?version:int -> unit -> t

val dir : t -> string

(** [<dir>/quarantine] — where corrupt entries are moved on detection. *)
val quarantine_dir : t -> string

(** [find t ~kind ~key] — look up the value stored under [(kind, key)].
    Returns [None] (after evicting or quarantining the file) for
    stale-version, torn, or checksum-failing entries. Unsafe in the
    [Marshal] sense: the caller must read back the same type it stored,
    which the version stamp plus content-addressed keys enforce in
    practice. *)
val find : t -> kind:string -> key:string -> 'a option

(** [store t ~kind ~key v] — persist [v] under [(kind, key)],
    overwriting any previous entry. I/O errors are swallowed: a cache
    that cannot write behaves like a cache that forgets. *)
val store : t -> kind:string -> key:string -> 'a -> unit

(** Remove every entry (the directory itself is kept). Also removes the
    journal and any quarantined files. *)
val clear : t -> unit

(** [digest_of v] — hex MD5 of [v]'s bytes marshalled without sharing,
    so structurally equal values digest alike however they were built;
    used to fold structured values (a {!Wish_sim.Config.t}, a binary's
    code and entry) into key strings. *)
val digest_of : 'a -> string

(** {1 Completion journal} *)

(** [<dir>/journal.log]. *)
val journal_path : t -> string

(** Append a completed-job key (version-stamped, crash-tolerant). *)
val journal_append : t -> string -> unit

(** The set of journaled keys written under the current format version;
    torn and stale lines are skipped. *)
val journal_load : t -> (string, unit) Hashtbl.t

(** Delete the journal. *)
val journal_clear : t -> unit

(** {1 Maintenance}

    The maintenance walks ({!scan}, {!verify}, {!prune}, {!stats}) skip
    [quarantine/]. *)

(** Integrity verdict for one on-disk entry ({!scan}/{!prune}). *)
type status =
  | Entry_ok
  | Entry_stale of int  (** written by this other format version *)
  | Entry_corrupt of string  (** human-readable reason *)

(** [scan t] — classify every entry file (path relative to the root,
    sorted) by header and footer checks alone; nothing is deserialized
    and nothing on disk is modified. *)
val scan : t -> (string * status) list

type verify_report = {
  v_entries : (string * status) list;  (** the {!scan}, pre-quarantine *)
  v_ok : int;
  v_stale : int;  (** reported only — {!prune} owns their eviction *)
  v_quarantined : int;  (** corrupt entries moved to the quarantine *)
}

(** [verify t] — {!scan}, then immediately quarantine every corrupt
    entry (stale-format entries are left in place). The health check
    behind [experiments cache verify], whose exit code gates CI on
    [v_quarantined = 0]. *)
val verify : t -> verify_report

type prune_report = { kept : int; evicted_stale : int; quarantined : int }

(** [prune t] — {!scan}, then delete stale-version entries and move
    corrupt ones to the quarantine. *)
val prune : t -> prune_report

(** Occupancy snapshot for [experiments cache stats]. Reads only
    headers and file sizes; nothing on disk is modified, verified, or
    deserialized. *)
type stats = {
  st_entries : int;  (** entry files under every kind directory *)
  st_bytes : int;  (** their total size on disk *)
  st_by_version : (int * int * int) list;
      (** (format version, entries, bytes), newest version first *)
  st_unrecognized : int;  (** entries whose header did not parse *)
  st_quarantined : int;  (** files sitting in [quarantine/] *)
  st_journal_keys : int;  (** completed-job keys loadable from the journal *)
}

val stats : t -> stats
