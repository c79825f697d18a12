(** Durable sealed server state: snapshot + write-ahead journal.

    A state directory holds two files sharing one record grammar
    ({!Record} payloads in {!Journal} CRC frames):

    - [snapshot.bin] — the full state as of the last compaction, written
      atomically (temp + rename), opened all-or-nothing;
    - [journal.bin] — records appended (and fsynced) since.

    Every record except the leading [Meta] is sealed with OCB under a
    store key derived from the server's long-term MAC key, so a bit-flip
    that repairs its CRC still fails authentication, and records cannot
    be forged without the key.  Integrity is layered:

    - torn write / truncated tail → CRC framing recovers to the last
      acknowledged prefix (the tail is quarantined and repaired);
    - bit-flip → CRC or OCB failure → quarantine from that record on;
    - stale NVRAM → {!nvram_set} is monotonic per counter and replay
      refuses any decrease with a typed [Rollback];
    - mixed generations → [Meta] epochs bind journal to snapshot: a
      journal older than its snapshot was superseded by that snapshot
      and is discarded; a journal {e newer} than the snapshot proves the
      snapshot file was rolled back, and the whole directory is refused.

    A refused directory never yields partial state: the caller gets a
    typed error to surface as an [unavailable] refusal. *)

type t

type error =
  | Rollback of string  (** NVRAM decrease or snapshot/journal epoch inversion *)
  | Unreadable of string  (** corrupt snapshot, bad format, unopenable files *)

val error_message : error -> string

type health = {
  epoch : int;
  snapshot_records : int;
  journal_records : int;  (** applied from the journal's clean prefix *)
  journal_discarded : int;  (** records of a pre-compaction journal generation *)
  quarantined_records : int;  (** clean CRC frames rejected by seal/decode *)
  quarantined_bytes : int;  (** tail bytes dropped (and repaired) on open *)
}

val open_dir :
  ?journal_max_bytes:int ->
  ?compact_bytes:int ->
  ?registry:Ppj_obs.Registry.t ->
  mac_key:string ->
  string ->
  (t * health, error) result
(** Open (creating if missing) a state directory: replay snapshot then
    journal, repair any quarantined tail, and position the writer.
    [journal_max_bytes] simulates a full device (see {!Journal});
    [compact_bytes] auto-compacts once the journal grows past it
    (default 4 MiB). *)

val dir : t -> string

val epoch : t -> int

val is_sealed : t -> bool
(** The journal writer hit [ENOSPC]/a short write: all further appends
    shed with [`Sealed]; reads keep working. *)

type append_error = [ `Sealed | `Io of string ]

val append_error_message : append_error -> string

val put_contract : t -> digest:string -> string -> (unit, append_error) result

val put_submission :
  t -> contract:string -> provider:string -> string -> (unit, append_error) result
(** Also drops the contract's results and checkpoints, for every config:
    they joined the inputs this submission replaces.  Replay applies the
    same rule, so a reopened directory agrees. *)

val nvram_set : t -> name:string -> int -> (unit, append_error) result
(** Durable monotonic counter write.
    @raise Invalid_argument if [value] is below the current value. *)

val put_checkpoint :
  t -> contract:string -> config:string -> string -> (unit, append_error) result

val put_result : t -> contract:string -> config:string -> string -> (unit, append_error) result
(** Also drops the checkpoint under the same key: the result supersedes it. *)

val clear_checkpoint : t -> contract:string -> config:string -> (unit, append_error) result
(** Quarantine a rejected checkpoint so it is not retried. *)

val contracts : t -> (string * string) list
(** (digest, body), sorted by digest. *)

val submissions_of : t -> string -> (string * string) list
(** (provider, body) for a contract digest, sorted by provider. *)

val nvram : t -> string -> int option

val nvram_all : t -> (string * int) list

val checkpoint : t -> contract:string -> config:string -> string option

val result : t -> contract:string -> config:string -> string option

val compact : t -> (unit, append_error) result
(** Write the full state as a new snapshot epoch (temp + rename + dir
    fsync), then reset the journal to that epoch.  A crash between the
    two steps leaves a journal one epoch behind its snapshot, which the
    next open discards as superseded. *)

val close : t -> unit

(** {2 Offline validation} *)

type report = {
  r_ok : bool;
  r_error : string option;  (** the typed refusal, when not ok *)
  r_snapshot_epoch : int;
  r_journal_epoch : int option;  (** [None]: empty/missing journal *)
  r_health : health;
  r_contracts : int;
  r_submissions : int;
  r_nvram : (string * int) list;
  r_checkpoints : int;
  r_results : int;
  r_snapshot_bytes : int;
  r_journal_bytes : int;
}

val check : mac_key:string -> string -> report
(** Read-only validation of a state directory: nothing is repaired,
    truncated or appended.  Deterministic in the directory contents. *)
