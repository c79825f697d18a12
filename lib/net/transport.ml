module Plan = Ppj_fault.Plan
module Injector = Ppj_fault.Injector

exception Closed

type t = {
  send : string -> unit;
  recv : timeout:float -> string option;
  close : unit -> unit;
  peer : string;
}

let plan_dir = function
  | Wiretap.To_server -> Plan.To_server
  | Wiretap.To_client -> Plan.To_client

let corrupt_payload frame =
  let p = frame.Frame.payload in
  if String.length p = 0 then None  (* nothing to flip: degrade to a drop *)
  else begin
    let b = Bytes.of_string p in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Some { frame with Frame.payload = Bytes.to_string b }
  end

(* The one gate every in-process frame crosses, per connection.  The
   tap (the adversary's view) records the frame as sent, before the
   network loses or mangles it; then the fault plan decides its fate.
   Delay is a one-slot hold per direction: the delayed frame travels
   right behind the next frame that passes, reordering without loss. *)
let gate ?tap ?faults () =
  let held = [| None; None |] in
  fun dir frame ->
    Option.iter (fun w -> Wiretap.record w dir frame) tap;
    match faults with
    | None -> [ frame ]
    | Some inj ->
        let idx = match dir with Wiretap.To_server -> 0 | Wiretap.To_client -> 1 in
        let release delivered =
          match held.(idx) with
          | Some f when delivered <> [] ->
              held.(idx) <- None;
              delivered @ [ f ]
          | _ -> delivered
        in
        (match
           Injector.on_frame inj ~dir:(plan_dir dir) ~tag:(Wire.tag_name frame.Frame.tag)
         with
        | None -> release [ frame ]
        | Some Injector.Drop -> []
        | Some Injector.Duplicate -> release [ frame; frame ]
        | Some Injector.Delay ->
            held.(idx) <- Some frame;
            []
        | Some Injector.Corrupt ->
            release (match corrupt_payload frame with Some f -> [ f ] | None -> []))

(* Whole frames decoded so far from [decoder]'s byte stream. *)
let frames decoder =
  let rec go acc =
    match Frame.Decoder.next decoder with
    | Ok None -> List.rev acc
    | Ok (Some f) -> go (f :: acc)
    | Error e -> failwith ("loopback: undecodable stream: " ^ e)
  in
  go []

let loopback ?tap ?faults reactor =
  let now () = Unix.gettimeofday () in
  let conn = Reactor.connect reactor ~now:(now ()) ~peer:"loopback" in
  let pass = gate ?tap ?faults () in
  let outbound = Frame.Decoder.create () in
  let inbound = Frame.Decoder.create () in
  let inbox : string Queue.t = Queue.create () in
  let closed = ref false in
  (* What [Reactor.serve_unix] does after every read: write out all the
     replies the reactor queued.  Here they land in [inbox], one frame
     per [recv], after the gate; a connection the reactor finished with
     is closed, as the socket loop would. *)
  let flush () =
    let rec go () =
      match Reactor.pending conn with
      | None -> ()
      | Some (s, off) ->
          let n = String.length s - off in
          Frame.Decoder.feed inbound (String.sub s off n);
          Reactor.wrote conn n;
          go ()
    in
    go ();
    List.iter
      (fun f -> List.iter (fun d -> Queue.push (Frame.encode d) inbox) (pass Wiretap.To_client f))
      (frames inbound);
    if Reactor.finished conn then Reactor.close reactor conn
  in
  let send bytes =
    if !closed || Reactor.finished conn then raise Closed;
    Frame.Decoder.feed outbound bytes;
    List.iter
      (fun f ->
        List.iter
          (fun d ->
            Reactor.feed reactor conn ~now:(now ()) (Frame.encode d);
            flush ())
          (pass Wiretap.To_server f))
      (frames outbound)
  in
  let recv ~timeout:_ =
    (* The plan's timeout@recv events count client receive calls. *)
    if match faults with Some inj -> Injector.on_recv inj | None -> false then None
    else
      match Queue.take_opt inbox with
      | Some _ as reply -> reply
      | None -> if Reactor.finished conn then raise Closed else None
  in
  let close () =
    if not !closed then begin
      closed := true;
      Reactor.close reactor conn
    end
  in
  { send; recv; close; peer = "loopback" }

(* A kill switch for chaos scenarios: once blown, the wrapped transport
   behaves like a peer that dropped dead mid-session — sends raise
   [Closed], receives report silence forever (the bytes in flight are
   lost with the process).  [after_sends] arms an automatic trip after
   that many successful sends, so a plan can kill a shard server at a
   deterministic point of the fan-out. *)
let fused ?after_sends inner =
  let blown = ref false in
  let sends = ref 0 in
  let auto () =
    match after_sends with Some n when !sends >= n -> blown := true | _ -> ()
  in
  let send bytes =
    auto ();
    if !blown then raise Closed;
    inner.send bytes;
    incr sends;
    auto ()
  in
  let recv ~timeout =
    auto ();
    if !blown then None else inner.recv ~timeout
  in
  let t = { send; recv; close = inner.close; peer = inner.peer ^ "+fuse" } in
  (t, fun () -> blown := true)

let connect_unix ~path () =
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "connect %s: %s" path (Unix.error_message err))
  | fd ->
      let closed = ref false in
      let send s =
        if !closed then raise Closed;
        let b = Bytes.of_string s in
        let rec go off =
          if off < Bytes.length b then
            match Unix.write fd b off (Bytes.length b - off) with
            | n -> go (off + n)
            | exception Unix.Unix_error (Unix.EPIPE, _, _) -> raise Closed
        in
        go 0
      in
      let buf = Bytes.create 65536 in
      let recv ~timeout =
        if !closed then raise Closed;
        (* EINTR must not shorten the wait: a signal mid-select used to
           surface here as a spurious receive timeout, charging a retry
           (and its backoff) to the client for nothing.  [Poller.wait]
           retries against the original deadline. *)
        match Poller.wait ~read:[ fd ] ~write:[] ~timeout with
        | [], _ -> None
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> raise Closed
            | n -> Some (Bytes.sub_string buf 0 n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> None)
      in
      let close () =
        if not !closed then begin
          closed := true;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
      in
      Ok { send; recv; close; peer = path }
