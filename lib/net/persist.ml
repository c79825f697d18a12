module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Tuple = Ppj_relation.Tuple
module Trace = Ppj_scpu.Trace
module Host = Ppj_scpu.Host
module Codec = Ppj_crypto.Codec
module W = Codec.W
module R = Codec.R

(* The store keeps record bodies opaque, so the grammar of the bodies a
   durable server writes lives here, next to the server that owns it,
   on the codec the wire is framed with.  Counts are [u32]: a relation's
   tuples and a checkpoint's slots outgrow [W.list]'s [u16]. *)

let w_items b f items =
  W.u32 b (List.length items);
  List.iter (f b) items

(* Into a list: an array would be allocated at the declared count before
   its first item is read, so a doctored count could ask for gigabytes. *)
let r_items r f = List.init (R.u32 r) (fun _ -> f r)

let decoding name f s = Result.map_error (fun m -> name ^ ": " ^ m) (Codec.decode s f)

(* --- accepted submissions -------------------------------------------- *)

let submission_to_string schema (rel : Relation.t) =
  Codec.encode (fun b ->
      W.str b (Wire.schema_to_string schema);
      W.str b rel.Relation.name;
      W.u32 b (Relation.cardinality rel);
      Array.iter (fun t -> W.str b (Tuple.encode t)) rel.Relation.tuples)

let submission_of_string s =
  decoding "submission"
    (fun r ->
      let schema =
        match Wire.schema_of_string (R.str r) with Ok s -> s | Error m -> R.fail "%s" m
      in
      let name = R.str r in
      let tuples = r_items r (fun r -> Tuple.decode schema (R.str r)) in
      (schema, Relation.make ~name schema tuples))
    s

(* --- host checkpoint images ------------------------------------------ *)

let checkpoint_to_string (e : Host.export) =
  Codec.encode (fun b ->
      w_items b
        (fun b (region, slots) ->
          W.str b (Trace.region_name region);
          W.u32 b (Array.length slots);
          Array.iter
            (function
              | None -> W.u8 b 0
              | Some c ->
                  W.u8 b 1;
                  W.str b c)
            slots)
        e.Host.e_regions;
      w_items b W.str e.Host.e_disk;
      W.u32 b e.Host.e_disk_tuples)

let checkpoint_of_string s =
  decoding "checkpoint"
    (fun r ->
      let e_regions =
        r_items r (fun r ->
            let region = Trace.region_of_name (R.str r) in
            let slots =
              r_items r (fun r ->
                  match R.u8 r with
                  | 0 -> None
                  | 1 -> Some (R.str r)
                  | tag -> R.fail "bad slot tag %d" tag)
            in
            (region, Array.of_list slots))
      in
      let e_disk = r_items r R.str in
      let e_disk_tuples = R.u32 r in
      { Host.e_regions; e_disk; e_disk_tuples })
    s

(* --- cached results --------------------------------------------------- *)

(* The plaintext oTuple stream plus the joined schema and the transfer
   count of the run that produced it.  Plaintext on purpose: session
   keys are ephemeral, so a restarted server must re-seal the cached
   result to the {e new} session — the store's own sealing layer is what
   protects it at rest. *)
let result_to_string ~schema ~transfers otuples =
  Codec.encode (fun b ->
      W.str b schema;
      W.u32 b transfers;
      w_items b W.str otuples)

let result_of_string s =
  decoding "result"
    (fun r ->
      let schema = R.str r in
      let transfers = R.u32 r in
      let otuples = r_items r R.str in
      (schema, transfers, otuples))
    s
