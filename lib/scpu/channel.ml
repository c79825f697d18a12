module Ocb = Ppj_crypto.Ocb
module Prf = Ppj_crypto.Prf
module Relation = Ppj_relation.Relation
module Schema = Ppj_relation.Schema
module Tuple = Ppj_relation.Tuple
module Decoy = Ppj_relation.Decoy

type role = Initiator | Responder

type party = {
  id : string;
  key : Ocb.key;
  nonce_prf : Prf.t;
  nonce_base : int;
  mutable nonce_ctr : int;
}

(* The two ends of a DH-derived session hold the same key, so their nonce
   streams must be disjoint: the responder draws nonces from a counter
   range with bit 61 set, the initiator from [0, 2^61). *)
let responder_nonce_base = 1 lsl 61

let make_party role ~id ~secret =
  if String.length secret <> 16 then invalid_arg "Channel.party: secret must be 16 bytes";
  { id;
    key = Ocb.key_of_string secret;
    nonce_prf = Prf.create secret;
    nonce_base = (match role with Initiator -> 0 | Responder -> responder_nonce_base);
    nonce_ctr = 0;
  }

let party ~id ~secret = make_party Initiator ~id ~secret
let responder_party ~id ~secret = make_party Responder ~id ~secret

module Group = Ppj_crypto.Group
module Hash = Ppj_crypto.Hash
module Block = Ppj_crypto.Block

module Handshake = struct
  type hello = { id : string; gx : int; mac : string }
  type reply = { gy : int; mac : string }

  let hello_mac ~mac_key ~id ~gx = Hash.mac ~key:mac_key (Printf.sprintf "hello|%s|%d" id gx)

  let reply_mac ~mac_key ~id ~gx ~gy =
    Hash.mac ~key:mac_key (Printf.sprintf "reply|%s|%d|%d" id gx gy)

  let hello rng ~id ~mac_key =
    let x = Group.random_exponent rng in
    let gx = Group.power Group.g x in
    ({ id; gx; mac = hello_mac ~mac_key ~id ~gx }, x)

  let respond rng ~mac_key (h : hello) =
    (* MACs are secret-derived: compare in constant time. *)
    if not (Block.ct_equal h.mac (hello_mac ~mac_key ~id:h.id ~gx:h.gx)) then
      Error "handshake: hello does not authenticate"
    else begin
      let y = Group.random_exponent rng in
      let gy = Group.power Group.g y in
      let secret = Group.key_of (Group.power h.gx y) in
      Ok
        ( { gy; mac = reply_mac ~mac_key ~id:h.id ~gx:h.gx ~gy },
          responder_party ~id:h.id ~secret )
    end

  let finish ~id ~mac_key ~exponent (r : reply) =
    let gx = Group.power Group.g exponent in
    if not (Block.ct_equal r.mac (reply_mac ~mac_key ~id ~gx ~gy:r.gy)) then
      Error "handshake: reply does not authenticate"
    else Ok (party ~id ~secret:(Group.key_of (Group.power r.gy exponent)))

  let corrupt_hello (h : hello) = { h with gx = Group.mul h.gx Group.g }

  type responder = {
    seen : (string * int * string, unit) Hashtbl.t;
    order : (string * int * string) Queue.t;  (* FIFO eviction when full *)
    capacity : int;
  }

  let responder ?(capacity = 4096) () : responder =
    if capacity < 1 then invalid_arg "Channel.Handshake.responder: capacity must be positive";
    { seen = Hashtbl.create 16; order = Queue.create (); capacity }

  let respond_guarded guard rng ~mac_key (h : hello) =
    let key = (h.id, h.gx, h.mac) in
    if Hashtbl.mem guard.seen key then Error "handshake: replayed hello"
    else
      match respond rng ~mac_key h with
      | Error _ as e -> e
      | Ok _ as ok ->
          if Hashtbl.length guard.seen >= guard.capacity then begin
            let oldest = Queue.pop guard.order in
            Hashtbl.remove guard.seen oldest
          end;
          Hashtbl.replace guard.seen key ();
          Queue.push key guard.order;
          ok
end

type contract = {
  contract_id : string;
  providers : string list;
  recipient : string;
  predicate : string;
}

let contract_digest c =
  Attestation.hash
    (String.concat "\x00" (c.contract_id :: c.predicate :: c.recipient :: c.providers))

type submission = { sender : string; nonce : string; ciphertext : string }

let fresh_nonce p =
  let n = Prf.nonce_at p.nonce_prf (p.nonce_base lor p.nonce_ctr) in
  p.nonce_ctr <- p.nonce_ctr + 1;
  n

(* Message layout: contract digest (16) ++ concatenated fixed-width tuples. *)
let submit p contract relation =
  let body = Buffer.create 1024 in
  Buffer.add_string body (contract_digest contract);
  Array.iter (Buffer.add_string body) (Relation.encode_all relation);
  let nonce = fresh_nonce p in
  { sender = p.id; nonce; ciphertext = Ocb.encrypt p.key ~nonce (Buffer.contents body) }

let accept p contract schema s =
  if not (String.equal s.sender p.id) then Error "unknown sender"
  else
    match Ocb.decrypt p.key ~nonce:s.nonce s.ciphertext with
    | None -> Error "authentication failure"
    | Some body ->
        let digest_len = 16 in
        if String.length body < digest_len then Error "truncated submission"
        else if not (String.equal (String.sub body 0 digest_len) (contract_digest contract))
        then Error "contract mismatch"
        else begin
          let payload = String.sub body digest_len (String.length body - digest_len) in
          let w = Schema.width schema in
          if String.length payload mod w <> 0 then Error "ragged payload"
          else
            let n = String.length payload / w in
            let tuples =
              Array.init n (fun i -> Tuple.decode schema (String.sub payload (i * w) w))
            in
            Ok (Relation.of_array ~name:p.id schema tuples)
        end

let seal p msg =
  let nonce = fresh_nonce p in
  nonce ^ Ocb.encrypt p.key ~nonce msg

let open_sealed p msg =
  if String.length msg < 16 + Ocb.tag_length then Error "truncated sealed message"
  else
    let nonce = String.sub msg 0 16 in
    let ct = String.sub msg 16 (String.length msg - 16) in
    match Ocb.decrypt p.key ~nonce ct with
    | None -> Error "authentication failure"
    | Some body -> Ok body

let seal_result p contract otuples =
  let body = Buffer.create 1024 in
  Buffer.add_string body (contract_digest contract);
  (match otuples with
  | [] -> ()
  | first :: _ ->
      let w = String.length first in
      if List.exists (fun o -> String.length o <> w) otuples then
        invalid_arg "Channel.seal_result: mixed oTuple widths";
      let wp = Bytes.create 2 in
      Bytes.set_uint16_be wp 0 w;
      Buffer.add_bytes body wp;
      List.iter (Buffer.add_string body) otuples);
  let nonce = fresh_nonce p in
  nonce ^ Ocb.encrypt p.key ~nonce (Buffer.contents body)

let open_result p contract msg =
  if String.length msg < 16 then Error "truncated result"
  else
    let nonce = String.sub msg 0 16 in
    let ct = String.sub msg 16 (String.length msg - 16) in
    match Ocb.decrypt p.key ~nonce ct with
    | None -> Error "authentication failure"
    | Some body ->
        if String.length body < 16 then Error "truncated result body"
        else if not (String.equal (String.sub body 0 16) (contract_digest contract)) then
          Error "contract mismatch"
        else begin
          let payload = String.sub body 16 (String.length body - 16) in
          match String.length payload with
          | 0 -> Ok []
          | len -> (
              (* The stream is width-prefixed: uint16 oTuple width, then the
                 fixed-width oTuples back to back. *)
              match
                if len < 2 then None
                else
                  let w = String.get_uint16_be payload 0 in
                  let rest = String.sub payload 2 (len - 2) in
                  if w > 0 && String.length rest mod w = 0 then Some (w, rest) else None
              with
              | None -> Error "ragged result stream"
              | Some (w, rest) ->
                  let n = String.length rest / w in
                  let all = List.init n (fun i -> String.sub rest (i * w) w) in
                  Ok (List.filter (fun o -> not (Decoy.is_decoy o)) all))
        end
