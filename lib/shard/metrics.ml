module Registry = Ppj_obs.Registry
module Counter = Ppj_obs.Counter
module Histogram = Ppj_obs.Histogram

(* Ppj_obs.Registry guards its own table, but a Histogram is plain
   mutable state: shard jobs on several domains observing shard.co.load
   at once would race.  Every observation goes through one mutex; shard
   jobs report through {!shard_done} from inside their domain, the
   coordinator publishes the aggregate picture once the jobs are
   joined. *)

type t = { registry : Registry.t; lock : Mutex.t }

let create ?registry () =
  let registry = match registry with Some r -> r | None -> Registry.create () in
  { registry; lock = Mutex.create () }

let registry t = t.registry

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let shard_done t ~shard ~transfers =
  locked t (fun () ->
      Counter.incr (Registry.counter t.registry "shard.co.completed");
      Counter.set_to
        (Registry.counter ~labels:[ ("co", string_of_int shard) ] t.registry
           "shard.co.transfers")
        transfers;
      Histogram.observe
        (Registry.histogram t.registry "shard.co.load")
        (float_of_int transfers))

let shard_failed t ~shard =
  locked t (fun () ->
      Counter.incr
        (Registry.counter ~labels:[ ("co", string_of_int shard) ] t.registry
           "shard.co.failed"))

let observe_outcome t ~p ~backend ~per_shard ~speedup ~(merge : Merge.stats) =
  locked t (fun () ->
      Registry.set_gauge t.registry "shard.p" (float_of_int p);
      Registry.set_gauge t.registry "shard.speedup" speedup;
      Registry.set_gauge ~labels:[ ("backend", backend) ] t.registry "shard.backend" 1.;
      Counter.set_to
        (Registry.counter t.registry "shard.transfers.total")
        (Array.fold_left ( + ) 0 per_shard);
      Registry.set_gauge t.registry "shard.merge.slots" (float_of_int merge.Merge.slots);
      Registry.set_gauge t.registry "shard.merge.comparators"
        (float_of_int merge.Merge.comparators))
