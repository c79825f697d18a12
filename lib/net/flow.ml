module Channel = Ppj_scpu.Channel
module Schema = Ppj_relation.Schema
module Relation = Ppj_relation.Relation
module Tuple = Ppj_relation.Tuple
module Service = Ppj_core.Service
module Rng = Ppj_crypto.Rng

type goal =
  | Submit of { schema : Schema.t; relation : Relation.t }
  | Join of { config : Service.config }

type outcome = Submitted | Delivered of string list | Refused of string

type phase =
  | Attesting
  | Greeting of int  (* our DH exponent, waiting for Hello_reply *)
  | Binding
  | Uploading
  | Executing
  | Fetching
  | Finished of outcome

type t = {
  id : string;
  mac_key : string;
  contract : Channel.contract;
  goal : goal;
  rng : Rng.t;
  decoder : Frame.Decoder.t;
  mutable out : string;  (* request bytes not yet on the wire... *)
  mutable out_off : int;  (* ...except this prefix, already sent *)
  mutable phase : phase;
  mutable party : Channel.party option;
  mutable next_seq : int;
  mutable awaiting : int;  (* seq whose reply advances the machine *)
  mutable retries : int;
}

let id t = t.id

let outcome t = match t.phase with Finished o -> Some o | _ -> None

let finish t o = t.phase <- Finished o

let refuse t fmt = Printf.ksprintf (fun m -> finish t (Refused m)) fmt

(* Queue a burst of request frames; the reply to the last one (their
   seqs are consecutive) is what moves the machine forward. *)
let send t msgs =
  let b = Buffer.create 256 in
  if t.out_off > 0 then t.out <- String.sub t.out t.out_off (String.length t.out - t.out_off);
  t.out_off <- 0;
  Buffer.add_string b t.out;
  List.iter
    (fun msg ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      t.awaiting <- seq;
      Buffer.add_string b (Frame.encode (Wire.to_frame ~seq msg)))
    msgs;
  t.out <- Buffer.contents b

let pending t =
  if String.length t.out = t.out_off then None else Some (t.out, t.out_off)

let sent t n =
  if n < 0 || t.out_off + n > String.length t.out then invalid_arg "Flow.sent: past the buffer";
  t.out_off <- t.out_off + n;
  if t.out_off = String.length t.out then begin
    t.out <- "";
    t.out_off <- 0
  end

let create ~rng ~id ~mac_key ~contract goal =
  let t =
    { id;
      mac_key;
      contract;
      goal;
      rng;
      decoder = Frame.Decoder.create ();
      out = "";
      out_off = 0;
      phase = Attesting;
      party = None;
      next_seq = 1;
      awaiting = 0;
      retries = 0;
    }
  in
  send t [ Wire.Attest_request { version = Wire.version; ctx = None } ];
  t

let with_party t k =
  match t.party with
  | Some party -> k party
  | None -> refuse t "flow: no party established"

let send_execute t config =
  with_party t (fun party ->
      let sealed_config = Channel.seal party (Wire.config_to_string config) in
      send t [ Wire.Execute { sealed_config } ];
      t.phase <- Executing)

let start_goal t =
  match t.goal with
  | Join { config } -> send_execute t config
  | Submit { schema; relation } ->
      with_party t (fun party ->
          let body = Wire.submission_to_string (Channel.submit party t.contract relation) in
          let pieces = Wire.upload_chunks body in
          let sealed_schema = Channel.seal party (Wire.schema_to_string schema) in
          let msgs =
            Wire.Upload_begin { sealed_schema; chunks = List.length pieces }
            :: List.mapi (fun seq bytes -> Wire.Upload_chunk { seq; bytes }) pieces
            @ [ Wire.Upload_done ]
          in
          send t msgs;
          t.phase <- Uploading)

let max_retries = 200

(* A typed error reply.  Execute-phase Missing_submission means some
   provider session has not finished uploading yet — under interleaving
   that is scheduling, not failure, so retry (a fresh Execute, fresh
   seq) up to [max_retries] times.  Unavailable is the server shedding or a
   crashed coprocessor; same treatment, matching {!Client}'s retry of
   idempotent RPCs.  Everything else is terminal. *)
let on_error t code message =
  match (t.phase, code, t.goal) with
  | Executing, (Wire.Missing_submission | Wire.Unavailable), Join { config }
    when t.retries < max_retries ->
      t.retries <- t.retries + 1;
      send_execute t config
  | _ ->
      refuse t "server error [%s]: %s" (Wire.error_code_to_string code) message

let on_reply t msg =
  match (t.phase, msg) with
  | Attesting, Wire.Attest_chain chain ->
      if Service.verify_chain chain then begin
        let hello, exponent = Channel.Handshake.hello t.rng ~id:t.id ~mac_key:t.mac_key in
        send t [ Wire.Hello hello ];
        t.phase <- Greeting exponent
      end
      else refuse t "attest: chain failed verification"
  | Greeting exponent, Wire.Hello_reply reply -> (
      match Channel.Handshake.finish ~id:t.id ~mac_key:t.mac_key ~exponent reply with
      | Error e -> refuse t "handshake: %s" e
      | Ok party ->
          t.party <- Some party;
          let sealed = Channel.seal party (Wire.contract_to_string t.contract) in
          send t [ Wire.Contract { sealed } ];
          t.phase <- Binding)
  | Binding, Wire.Contract_ok -> start_goal t
  | Uploading, Wire.Upload_ok -> finish t Submitted
  | Executing, Wire.Execute_ok _ ->
      send t [ Wire.Fetch ];
      t.phase <- Fetching
  | Fetching, Wire.Result { sealed_schema; sealed_body } ->
      with_party t (fun party ->
          match
            Result.bind (Channel.open_sealed party sealed_schema) (fun plain ->
                Result.bind (Wire.schema_of_string plain) (fun schema ->
                    Service.open_delivery ~schema ~recipient:party ~contract:t.contract
                      sealed_body))
          with
          | Error e -> refuse t "fetch: %s" e
          | Ok tuples -> finish t (Delivered (List.map Tuple.encode tuples)))
  | _, msg -> refuse t "unexpected reply %s" (Format.asprintf "%a" Wire.pp msg)

let on_bytes t bytes =
  if outcome t = None then begin
    Frame.Decoder.feed t.decoder bytes;
    let rec pump () =
      if outcome t = None then
        match Frame.Decoder.next t.decoder with
        | Ok None -> ()
        | Error e -> refuse t "undecodable reply stream: %s" e
        | Ok (Some frame) -> (
            match Wire.of_frame frame with
            | Error e -> refuse t "undecodable reply: %s" e
            | Ok (Wire.Error { code; message }) ->
                on_error t code message;
                pump ()
            | Ok msg ->
                (* Replies echo their request's seq; anything else is a
                   stale duplicate and is dropped, as in {!Client}. *)
                if frame.Frame.seq = t.awaiting then on_reply t msg;
                pump ())
    in
    pump ()
  end

let on_eof t = if outcome t = None then refuse t "connection closed by peer"
