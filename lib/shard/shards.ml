module Transport = Ppj_net.Transport

type t = { connect : int -> (Transport.t, string) result; p : int }

let create ~p ~connect =
  if p < 1 then invalid_arg "Shards.create: p must be positive";
  { connect; p }

let p t = t.p

let connect t k = t.connect k
