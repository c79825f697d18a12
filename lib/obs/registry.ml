type instrument =
  | I_counter of Counter.t
  | I_gauge of float ref
  | I_histogram of Histogram.t

type t = {
  table : (string * (string * string) list, instrument) Hashtbl.t;
  (* One registry may be shared by jobs on several domains (the shard
     Metrics sink's), so every access to the Hashtbl goes through this
     lock; the instruments themselves are either atomic (Counter),
     single-word writes (gauges), or documented as needing external
     synchronization (Histogram). *)
  lock : Mutex.t;
}

let create () = { table = Hashtbl.create 32; lock = Mutex.create () }

let default = create ()

let kind_name = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~labels name make =
  let key = (name, List.sort compare labels) in
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some i -> i
      | None ->
          let i = make () in
          Hashtbl.replace t.table key i;
          i)

let mismatch name want got =
  invalid_arg
    (Printf.sprintf "Registry: %s already registered as a %s, not a %s" name (kind_name got)
       want)

let counter ?(labels = []) t name =
  match find t ~labels name (fun () -> I_counter (Counter.create ())) with
  | I_counter c -> c
  | i -> mismatch name "counter" i

let histogram ?(labels = []) t name =
  match find t ~labels name (fun () -> I_histogram (Histogram.create ())) with
  | I_histogram h -> h
  | i -> mismatch name "histogram" i

let gauge_ref ?(labels = []) t name =
  match find t ~labels name (fun () -> I_gauge (ref 0.)) with
  | I_gauge r -> r
  | i -> mismatch name "gauge" i

let set_gauge ?labels t name v = gauge_ref ?labels t name := v

let observe ?labels t name v = Histogram.observe (histogram ?labels t name) v

let span ?labels t name f =
  let h = histogram ?labels t name in
  let t0 = Clock.now () in
  let record () = Histogram.observe h (Clock.now () -. t0) in
  match f () with
  | v ->
      record ();
      v
  | exception e ->
      record ();
      raise e

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun (name, labels) i acc ->
          let value =
            match i with
            | I_counter c -> Some (Snapshot.Counter (Counter.value c))
            | I_gauge r -> Some (Snapshot.Gauge !r)
            | I_histogram h -> (
                (* Bounded sample export keeps scrape payloads small
                   however long the process has been up. *)
                match Histogram.summary ~sample_limit:256 h with
                | Some s -> Some (Snapshot.Summary s)
                | None -> None (* empty histograms stay out of snapshots *))
          in
          match value with
          | Some value -> { Snapshot.name; labels; value } :: acc
          | None -> acc)
        t.table [])
  |> List.sort (fun a b ->
         compare (a.Snapshot.name, a.Snapshot.labels) (b.Snapshot.name, b.Snapshot.labels))
