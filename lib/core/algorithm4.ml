module Coprocessor = Ppj_scpu.Coprocessor
module Host = Ppj_scpu.Host
module Trace = Ppj_scpu.Trace
module Decoy = Ppj_relation.Decoy
module Filter = Ppj_oblivious.Filter

type budget = Own_count | Public of { s : int }

let filter inst ?delta ?network ~len ~mu () =
  let co = Instance.co inst in
  if mu > 0 then begin
    let buffer =
      Filter.run ?network co ~src:Trace.Output ~src_len:len ~mu ?delta
        ~is_real:(fun o -> not (Decoy.is_decoy o))
        ~width:(Instance.out_width inst) ()
    in
    Host.persist (Coprocessor.host co) buffer ~count:mu
  end

let run_slice inst ?delta ?network ~budget ~k ~p () =
  let lo, hi = Params.slice ~n:(Instance.l inst) ~k ~p in
  let co = Instance.co inst in
  Instance.ensure_cartesian inst;
  let len = hi - lo in
  let decoy = Instance.decoy inst in
  let (_ : Host.t) = Host.define_region (Coprocessor.host co) Trace.Output ~size:len in
  let own = ref 0 in
  for idx = lo to hi - 1 do
    let it = Instance.get_ituple inst idx in
    if Instance.satisfy inst it then begin
      Coprocessor.put co Trace.Output (idx - lo) (Instance.join_ituple inst it);
      incr own
    end
    else Coprocessor.put co Trace.Output (idx - lo) decoy
  done;
  let mu = match budget with Own_count -> !own | Public { s } -> min len s in
  filter inst ?delta ?network ~len ~mu ();
  !own

let run inst ?delta ?network () =
  let s = run_slice inst ?delta ?network ~budget:Own_count ~k:0 ~p:1 () in
  Report.collect inst ~stats:[ ("S", float_of_int s) ] ()
