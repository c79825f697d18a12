(** The length-prefixed binary codec of every byte string this system
    reads back from the network, the journal or a sealed blob: wire
    payloads ({!Ppj_net.Wire}), journal records ({!Ppj_store.Record}),
    durable bodies ({!Ppj_net.Persist}) and the sealed checkpoint state
    of {!Ppj_scpu.Coprocessor}.  {!decode} is their one totality
    boundary.

    Integers are big-endian.  [u32] carries lengths and counts below
    2{^31}: a value with the top bit set is malformed.  [vint] is a full
    8-byte signed int (seeds may be any int).  [str] is a [u32] length
    and the raw bytes; [list] is a [u16] count and the items. *)

module W : sig
  val u8 : Buffer.t -> int -> unit
  val u16 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit
  val vint : Buffer.t -> int -> unit
  val f64 : Buffer.t -> float -> unit
  val str : Buffer.t -> string -> unit
  val list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
end

module R : sig
  type t

  val fail : ('a, unit, string, 'b) format4 -> 'a
  (** Abandon the decode: {!decode} returns the formatted message as
      [Error]. *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val vint : t -> int
  val f64 : t -> float
  val str : t -> string

  val take : t -> int -> string
  (** The next [n] raw bytes (a field whose length was read some other
      way). *)

  val list : t -> (t -> 'a) -> 'a list

  val at_end : t -> bool
end

val encode : (Buffer.t -> unit) -> string

val decode : string -> (R.t -> 'a) -> ('a, string) result
(** Run a reader over the whole string.  Total: a short field, trailing
    bytes, {!R.fail} or [Invalid_argument] from the reader give [Error],
    never an exception. *)
