(** Relation schemas with fixed-width field encodings.

    The paper assumes fixed-size tuples whose size the server knows (§4.1);
    every field therefore has a declared maximum width so that a whole
    tuple serialises to exactly {!width} bytes. *)

type field_ty =
  | TInt
  | TStr of int  (** maximum byte length *)
  | TSet of int  (** maximum cardinality; elements are 32-bit ints *)

type field = { name : string; ty : field_ty }

type t

val make : field list -> t
(** @raise Invalid_argument on duplicate field names or non-positive
    widths. *)

val fields : t -> field list

val arity : t -> int

val width : t -> int
(** Serialised tuple width in bytes. *)

val index_of : t -> string -> int
(** Position of a named field.  @raise Not_found if absent. *)

val concat : t -> t -> t
(** Schema of the joined tuple [a ++ b]; clashing names get suffixed. *)

val concat_all : t list -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
