type serializer = Class_specific | Site_specific
type transport = Raw | Reliable
type tier = Aot | Adaptive

let default_hot_threshold = 8

type failover = {
  call_deadline : float;
  max_call_retries : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  reply_cache_cap : int;
}

let default_failover =
  {
    call_deadline = 30.0;
    max_call_retries = 2;
    breaker_threshold = 3;
    breaker_cooldown = 0.25;
    reply_cache_cap = 4096;
  }

type t = {
  name : string;
  serializer : serializer;
  elide_cycle : bool;
  reuse : bool;
  transport : transport;
  batching : bool;
  failover : failover;
  tier : tier;
  hot_threshold : int;
  arena : bool;
  domains : int;
  queue_depth : int;
}

let default_queue_depth = 64

let class_ =
  { name = "class"; serializer = Class_specific; elide_cycle = false; reuse = false;
    transport = Raw; batching = false; failover = default_failover;
    tier = Aot; hot_threshold = default_hot_threshold; arena = true;
    domains = 0; queue_depth = default_queue_depth }

let site =
  { name = "site"; serializer = Site_specific; elide_cycle = false; reuse = false;
    transport = Raw; batching = false; failover = default_failover;
    tier = Aot; hot_threshold = default_hot_threshold; arena = true;
    domains = 0; queue_depth = default_queue_depth }

let site_cycle =
  { name = "site + cycle"; serializer = Site_specific; elide_cycle = true; reuse = false;
    transport = Raw; batching = false; failover = default_failover;
    tier = Aot; hot_threshold = default_hot_threshold; arena = true;
    domains = 0; queue_depth = default_queue_depth }

let site_reuse =
  { name = "site + reuse"; serializer = Site_specific; elide_cycle = false; reuse = true;
    transport = Raw; batching = false; failover = default_failover;
    tier = Aot; hot_threshold = default_hot_threshold; arena = true;
    domains = 0; queue_depth = default_queue_depth }

let site_reuse_cycle =
  {
    name = "site + reuse + cycle";
    serializer = Site_specific;
    elide_cycle = true;
    reuse = true;
    transport = Raw;
    batching = false;
    failover = default_failover;
    tier = Aot;
    hot_threshold = default_hot_threshold;
    arena = true;
    domains = 0;
    queue_depth = default_queue_depth;
  }

let with_reliable t = { t with transport = Reliable }
let with_batching t = { t with batching = true }
let with_failover failover t = { t with failover }

let with_adaptive ?(hot_threshold = default_hot_threshold) t =
  { t with tier = Adaptive; hot_threshold }

let with_tier tier t = { t with tier }
let with_arena a t = { t with arena = a }
let legacy_heap t = { t with arena = false }

let with_domains ?(queue_depth = default_queue_depth) n t =
  if n < 0 then invalid_arg "Config.with_domains: negative domain count";
  if queue_depth < 1 then invalid_arg "Config.with_domains: queue_depth < 1";
  { t with domains = n; queue_depth }

let all = [ class_; site; site_cycle; site_reuse; site_reuse_cycle ]

let find name = List.find_opt (fun c -> String.equal c.name name) all
let pp ppf t = Format.pp_print_string ppf t.name
