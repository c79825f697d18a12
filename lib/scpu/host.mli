(** The untrusted host [H].

    [H] is a general-purpose machine providing memory and disk to the
    coprocessor (§3.2).  Everything it stores is ciphertext; an
    honest-but-curious host observes contents and access order, a
    malicious one may also {!tamper} — which the coprocessor's
    authenticated encryption must detect (§3.3.1). *)

type t

val create : unit -> t

val define_region : t -> Trace.region -> size:int -> t
(** Allocate a region of [size] ciphertext slots.  Redefining a region
    replaces it. *)

val region_size : t -> Trace.region -> int

val raw_get : t -> Trace.region -> int -> string
(** Ciphertext at a slot, as the adversary sees it.
    @raise Invalid_argument on an undefined slot. *)

val raw_set : t -> Trace.region -> int -> string -> unit

val peek : t -> Trace.region -> int -> string option
(** Ciphertext at a slot if the region exists and the slot is filled;
    never raises (the fault injector uses it to stash stale
    ciphertexts). *)

val tamper : t -> Trace.region -> int -> byte:int -> unit
(** Malicious-host bit flip in a stored ciphertext. *)

val persist : t -> Trace.region -> count:int -> unit
(** "Request H to write the first [count] slots to disk" — a host-side
    copy, so it costs no T↔H transfers (the paper reports disk writes
    separately from the transfer complexity). *)

val disk : t -> string list
(** Ciphertext tuples on disk, in write order. *)

val disk_writes : t -> int
(** Number of tuples written to disk. *)

(** {2 Crash recovery}

    When the coprocessor checkpoints, the host keeps a copy of its own
    memory and disk as of that moment ({!save_checkpoint}) — host-side
    state, no transfers charged.  After a coprocessor crash,
    {!restore_checkpoint} rewinds the host to that copy so the resumed
    coprocessor continues against exactly the state its sealed checkpoint
    describes.  The image is all ciphertext; serving a doctored one is
    detected by authenticated decryption and the per-slot epoch check. *)

val save_checkpoint : t -> unit

val has_checkpoint : t -> bool

type export = {
  e_regions : (Trace.region * string option array) list;
  e_disk : string list;  (** reversed write order, as held internally *)
  e_disk_tuples : int;
}
(** The held checkpoint image, regions in polymorphic-compare order —
    all ciphertext, so persisting it off-process grants the host nothing
    it could not already read. *)

val export_checkpoint : t -> export option
(** The held image itself, if any (not a copy: read it, do not write
    it). *)

val install_checkpoint : t -> export -> unit
(** Hold [export] as the checkpoint image (not copied); used when a
    restarted process rebuilds the host from durable state before
    resuming. *)

val restore_checkpoint : t -> unit
(** Copy the held image into the live regions and disk, so later writes
    leave the image as it was.
    @raise Invalid_argument if no image is held. *)

val reset : t -> unit
(** Empty regions and disk (the checkpoint image, if any, is kept).  The
    resume path uses this to rebuild the pre-crash world from pristine
    inputs before rolling forward. *)

val observe : ?labels:(string * string) list -> t -> Ppj_obs.Registry.t -> unit
(** Publish host-side figures into a registry: [host.disk_tuples], the
    region count, and each region's slot count (labelled by region). *)
