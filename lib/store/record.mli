(** Typed records of the durable state journal.

    The store keeps the {e keys} typed — contract digests, provider ids,
    config digests, NVRAM counter names — and the {e bodies} opaque:
    the net layer owns the body encodings (sealed relations, host
    checkpoint images, cached result streams), so the store depends on
    nothing above the crypto substrate. *)

type t =
  | Meta of { format : int; epoch : int }
      (** First record of every file.  [epoch] increments at each
          snapshot compaction and binds journal to snapshot: a journal
          whose epoch is {e newer} than the snapshot's proves the
          snapshot was rolled back. *)
  | Contract of { digest : string; body : string }
  | Submission of { contract : string; provider : string; body : string }
  | Nvram of { name : string; value : int }
      (** Durable monotonic counter — the on-disk stand-in for the
          coprocessor's battery-backed NVRAM.  Replay refuses any
          decrease. *)
  | Checkpoint of { contract : string; config : string; body : string }
  | Result of { contract : string; config : string; body : string }
  | Clear of { contract : string; config : string }
      (** Quarantine marker: the checkpoint under this key was rejected
          (tamper/stale version) and must not be retried. *)

val encode : t -> string
(** A [u8] tag (1–7, in declaration order), then the fields on
    {!Ppj_crypto.Codec}: [format] a [u32], [epoch] and [value] a [vint],
    every string a [str]. *)

val decode : string -> (t, string) result
(** Total: malformed bytes give [Error], never an exception. *)

val kind : t -> string
(** Stable lowercase label for reports ("meta", "contract", ...). *)
