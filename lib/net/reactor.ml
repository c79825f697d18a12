module Registry = Ppj_obs.Registry

type limits = {
  max_conns : int;
  max_queue_bytes : int;
  high_water_bytes : int;
  idle_timeout : float;
}

let default_limits =
  { max_conns = 1024;
    max_queue_bytes = 8 * 1024 * 1024;
    high_water_bytes = 1024 * 1024;
    idle_timeout = 30.;
  }

(* A refused connection never gets a server session: it exists only to
   answer its first frame with a typed Unavailable and drain away. *)
type mode = Serving of Server.session | Refusing

type conn = {
  id : int;
  peer : string;
  mode : mode;
  high_water_bytes : int;
  decoder : Frame.Decoder.t;
  outq : string Queue.t;
  mutable queued_bytes : int;  (* whole frames in [outq], head included *)
  mutable out_off : int;  (* bytes of the head already written *)
  mutable closing : bool;
  mutable closing_since : float;
  mutable closed : bool;
  mutable last_progress : float;  (* last complete decoded frame *)
}

type t = {
  server : Server.t;
  limits : limits;
  conns : (int, conn) Hashtbl.t;
  mutable live : int;
  mutable next_id : int;
}

let create ?(limits = default_limits) server =
  let t = { server; limits; conns = Hashtbl.create 64; live = 0; next_id = 0 } in
  (* Queue depths are scrape-time state, not hot-path state: refresh the
     gauges only when a stats snapshot asks for them. *)
  Server.add_prescrape server (fun () ->
      let queued = Hashtbl.fold (fun _ c acc -> acc + c.queued_bytes - c.out_off) t.conns 0 in
      Registry.set_gauge (Server.registry server) "net.server.conns.live"
        (float_of_int t.live);
      Registry.set_gauge (Server.registry server) "net.server.queue.bytes"
        (float_of_int queued));
  t

let server t = t.server

let live t = t.live

let peer c = c.peer

let count t name =
  Ppj_obs.Counter.incr (Registry.counter (Server.registry t.server) name)

let live_gauge t =
  Registry.set_gauge (Server.registry t.server) "net.server.conns.live"
    (float_of_int t.live)

let unavailable ~seq message =
  Frame.encode (Wire.to_frame ~seq (Wire.Error { code = Wire.Unavailable; message }))

let push_bytes c bytes =
  Queue.push bytes c.outq;
  c.queued_bytes <- c.queued_bytes + String.length bytes

let begin_closing c ~now =
  if not c.closing then begin
    c.closing <- true;
    c.closing_since <- now
  end

(* Queue-full shedding: drop everything the peer has not started
   receiving (a partially-written head must survive or the byte stream
   desyncs), replace it with one typed Unavailable echoing [seq], and
   close once that drains.  The peer loses replies it was too slow to
   read, never gets a torn frame, and never pins server memory. *)
let shed_overload t c ~now ~seq =
  count t "net.server.overload.shed";
  let head = if c.out_off > 0 && not (Queue.is_empty c.outq) then Queue.take_opt c.outq else None in
  Queue.clear c.outq;
  c.queued_bytes <- 0;
  (match head with Some h -> push_bytes c h | None -> c.out_off <- 0);
  push_bytes c (unavailable ~seq "server overloaded: outbound queue full");
  begin_closing c ~now

let push_frame t c ~now frame =
  let bytes = Frame.encode frame in
  if c.queued_bytes + String.length bytes > t.limits.max_queue_bytes then
    shed_overload t c ~now ~seq:frame.Frame.seq
  else push_bytes c bytes

let connect t ~now ~peer =
  let id = t.next_id in
  t.next_id <- id + 1;
  let mode =
    if t.live >= t.limits.max_conns then begin
      count t "net.server.admission.shed";
      Refusing
    end
    else begin
      t.live <- t.live + 1;
      Serving (Server.open_session t.server)
    end
  in
  let c =
    { id;
      peer;
      mode;
      high_water_bytes = t.limits.high_water_bytes;
      decoder = Frame.Decoder.create ();
      outq = Queue.create ();
      queued_bytes = 0;
      out_off = 0;
      closing = false;
      closing_since = now;
      closed = false;
      last_progress = now;
    }
  in
  Hashtbl.replace t.conns id c;
  live_gauge t;
  c

let feed t c ~now bytes =
  if not (c.closed || c.closing) then begin
    Frame.Decoder.feed c.decoder bytes;
    let rec pump () =
      if not c.closing then
        match Frame.Decoder.next c.decoder with
        | Ok None -> ()
        | Error e ->
            count t "net.server.evicted.malformed";
            push_frame t c ~now (Wire.to_frame (Wire.Error { code = Wire.Malformed; message = e }));
            begin_closing c ~now
        | Ok (Some frame) -> (
            c.last_progress <- now;
            match c.mode with
            | Refusing ->
                push_bytes c
                  (unavailable ~seq:frame.Frame.seq "server at connection capacity; retry later");
                begin_closing c ~now
            | Serving session ->
                List.iter (push_frame t c ~now) (Server.handle_frame t.server session frame);
                pump ())
    in
    pump ()
  end

(* Backpressure: a connection whose peer is not draining replies stops
   being read, so its own next requests queue in the kernel instead of
   inflating our outbound queue toward the shed threshold. *)
let wants_read c =
  (not (c.closed || c.closing)) && c.queued_bytes - c.out_off < c.high_water_bytes

let wants_write c = (not c.closed) && not (Queue.is_empty c.outq)

let pending c =
  if c.closed then None
  else match Queue.peek_opt c.outq with None -> None | Some s -> Some (s, c.out_off)

let wrote c n =
  match Queue.peek_opt c.outq with
  | None -> invalid_arg "Reactor.wrote: nothing pending"
  | Some s ->
      let len = String.length s in
      if n < 0 || c.out_off + n > len then invalid_arg "Reactor.wrote: past the frame";
      c.out_off <- c.out_off + n;
      if c.out_off = len then begin
        ignore (Queue.pop c.outq);
        c.queued_bytes <- c.queued_bytes - len;
        c.out_off <- 0
      end

let finished c = c.closing && Queue.is_empty c.outq

let close t c =
  if not c.closed then begin
    c.closed <- true;
    c.closing <- true;
    Hashtbl.remove t.conns c.id;
    (match c.mode with
    | Serving session ->
        t.live <- t.live - 1;
        Server.close_session t.server session
    | Refusing -> ());
    live_gauge t
  end

let sweep t ~now =
  let expired = ref [] in
  Hashtbl.iter
    (fun _ c ->
      if not c.closed then
        if c.closing then begin
          if now -. c.closing_since > t.limits.idle_timeout then expired := c :: !expired
        end
        else if now -. c.last_progress > t.limits.idle_timeout then begin
          count t "net.server.evicted.idle";
          push_bytes c (unavailable ~seq:0 "idle session evicted");
          begin_closing c ~now
        end)
    t.conns;
  List.sort (fun a b -> compare a.id b.id) !expired

(* --- Unix-domain-socket serve loop ---------------------------------- *)

(* How long one readiness wait may block before the loop re-checks
   [stop], [max_sessions] and the idle sweep. *)
let poll_interval = 0.05

let serve_unix t ~path ?health_path ?tick ?(backlog = 1024) ?max_sessions
    ?(stop = fun () -> false) () =
  (* A client that vanishes mid-reply turns our next write into SIGPIPE,
     which kills the whole process by default; ignore it so the write
     surfaces as EPIPE and tears down that one connection instead.  The
     previous disposition is restored on exit. *)
  let sigpipe_prev =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* The health probe listens on its own socket and speaks no frames:
     accept, write one JSON line, close.  It is answered straight from
     the reactor loop before any attestation happens on the main socket,
     so an orchestrator can gate readiness without wire credentials. *)
  let hfd =
    match health_path with
    | None -> None
    | Some hp ->
        (try Unix.unlink hp with Unix.Unix_error _ -> ());
        Some (hp, Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let serve_health fd =
    let rec accept_all () =
      match Unix.accept fd with
      | cfd, _ ->
          let body = Server.health_json t.server ^ "\n" in
          (try ignore (Unix.write_substring cfd body 0 (String.length body))
           with Unix.Unix_error _ -> ());
          (try Unix.close cfd with Unix.Unix_error _ -> ());
          accept_all ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> ()
    in
    accept_all ()
  in
  let fds : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let of_conn : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 64 in
  let drop conn =
    match Hashtbl.find_opt of_conn conn.id with
    | None -> ()
    | Some fd ->
        Hashtbl.remove of_conn conn.id;
        Hashtbl.remove fds fd;
        close t conn;
        (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (* Write as much queued output as the socket accepts right now. *)
  let flush_conn fd conn =
    let rec go () =
      match pending conn with
      | None -> `Drained
      | Some (s, off) -> (
          match Unix.write_substring fd s off (String.length s - off) with
          | n ->
              wrote conn n;
              if n = String.length s - off then go () else `Pending
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              `Pending
          | exception Unix.Unix_error _ -> `Broken)
    in
    go ()
  in
  let after_flush conn = function
    | `Broken -> drop conn
    | `Drained -> if conn.closing then drop conn
    | `Pending -> ()
  in
  let finished_serving () =
    match max_sessions with
    | Some n -> Server.sessions_closed t.server >= n
    | None -> false
  in
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) fds;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      (match hfd with
      | Some (hp, fd) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          (try Unix.unlink hp with Unix.Unix_error _ -> ())
      | None -> ());
      match sigpipe_prev with
      | Some prev -> ( try Sys.set_signal Sys.sigpipe prev with Invalid_argument _ -> ())
      | None -> ())
    (fun () ->
      Unix.bind lfd (Unix.ADDR_UNIX path);
      Unix.listen lfd backlog;
      Unix.set_nonblock lfd;
      (match hfd with
      | Some (hp, fd) ->
          Unix.bind fd (Unix.ADDR_UNIX hp);
          Unix.listen fd backlog;
          Unix.set_nonblock fd
      | None -> ());
      let listeners =
        lfd :: (match hfd with Some (_, fd) -> [ fd ] | None -> [])
      in
      let buf = Bytes.create 65536 in
      while not (stop ()) && not (finished_serving ()) do
        let read =
          Hashtbl.fold (fun fd c acc -> if wants_read c then fd :: acc else acc) fds listeners
        in
        let write =
          Hashtbl.fold (fun fd c acc -> if wants_write c then fd :: acc else acc) fds []
        in
        let readable, writable = Poller.wait ~read ~write ~timeout:poll_interval in
        let now = Unix.gettimeofday () in
        List.iter
          (fun fd ->
            match Hashtbl.find_opt fds fd with
            | None -> ()
            | Some conn -> after_flush conn (flush_conn fd conn))
          writable;
        (match tick with Some f -> f ~now | None -> ());
        List.iter
          (fun fd ->
            if (match hfd with Some (_, h) -> fd == h | None -> false) then serve_health fd
            else if fd == lfd then begin
              (* Drain the accept queue: under a connect storm one accept
                 per readiness event would admit clients at the poll
                 rate, not the loop rate. *)
              let rec accept_all () =
                match Unix.accept lfd with
                | cfd, _ ->
                    Unix.set_nonblock cfd;
                    let conn = connect t ~now ~peer:"unix" in
                    Hashtbl.replace fds cfd conn;
                    Hashtbl.replace of_conn conn.id cfd;
                    accept_all ()
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                  -> ()
                | exception Unix.Unix_error _ -> ()
              in
              accept_all ()
            end
            else
              match Hashtbl.find_opt fds fd with
              | None -> ()
              | Some conn -> (
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> drop conn
                  | n ->
                      feed t conn ~now (Bytes.sub_string buf 0 n);
                      (* Flush opportunistically: most replies fit the
                         socket buffer and never need the write set. *)
                      after_flush conn (flush_conn fd conn)
                  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                    -> ()
                  | exception Unix.Unix_error _ -> drop conn))
          readable;
        (* Idle eviction: newly-idle connections get their Unavailable
           queued above; ones that refused to drain for a further
           timeout are returned here for teardown. *)
        List.iter drop (sweep t ~now);
        (* Connections whose goodbye drained outside the write set. *)
        let done_ =
          Hashtbl.fold (fun _ c acc -> if finished c then c :: acc else acc) fds []
        in
        List.iter drop done_
      done)
