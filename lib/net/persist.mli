(** Body codecs for the durable store's opaque record bodies.

    {!Ppj_store} keeps record bodies opaque so it sits below the wire
    and relation layers; the server owns the body grammar through this
    module, written on {!Ppj_crypto.Codec} like the wire's.  Three
    bodies exist: an accepted submission (schema + plaintext relation),
    a host checkpoint image (all ciphertext), and a cached join result
    (the plaintext oTuple stream, re-sealable to a fresh session).
    Every decoder is total — malformed bytes return [Error], never
    raise — because bodies come back from disk. *)

module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Host = Ppj_scpu.Host

val submission_to_string : Schema.t -> Relation.t -> string

val submission_of_string : string -> (Schema.t * Relation.t, string) result

val checkpoint_to_string : Host.export -> string

val checkpoint_of_string : string -> (Host.export, string) result

val result_to_string : schema:string -> transfers:int -> string list -> string
(** [schema] is the wire form of the joined schema ({!Wire.schema_to_string}). *)

val result_of_string : string -> (string * int * string list, string) result
(** [(schema, transfers, otuples)]. *)
