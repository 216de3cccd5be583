type snapshot = {
  states_expanded : int;
  dedup_hits : int;
  valence_cache_hits : int;
  valence_cache_misses : int;
  tasks_executed : int;
  domains_utilised : int;
  workers_respawned : int;
  interned_states : int;
  intern_hits : int;
  simgraph_maskings : int;
  simgraph_candidates : int;
  result_cache_hits : int;
  result_cache_misses : int;
  requests_cancelled : int;
  singleflight_joins : int;
  gc_compactions : int;
  ckpt_rejected : int;
  mem_soft_events : int;
  orbit_hits : int;
}

let states_expanded = Atomic.make 0
let dedup_hits = Atomic.make 0
let valence_cache_hits = Atomic.make 0
let valence_cache_misses = Atomic.make 0
let tasks_executed = Atomic.make 0
let workers_respawned = Atomic.make 0
let interned_states = Atomic.make 0
let intern_hits = Atomic.make 0
let simgraph_maskings = Atomic.make 0
let simgraph_candidates = Atomic.make 0
let result_cache_hits = Atomic.make 0
let result_cache_misses = Atomic.make 0
let requests_cancelled = Atomic.make 0
let singleflight_joins = Atomic.make 0
let gc_compactions = Atomic.make 0
let ckpt_rejected = Atomic.make 0
let mem_soft_events = Atomic.make 0
let orbit_hits = Atomic.make 0

(* One bit per pool slot; popcount = "domains utilised". *)
let domain_mask = Atomic.make 0

let add counter n = if n <> 0 then ignore (Atomic.fetch_and_add counter n)
let add_states_expanded n = add states_expanded n
let add_dedup_hits n = add dedup_hits n

let record_valence_lookup ~hit =
  add (if hit then valence_cache_hits else valence_cache_misses) 1

let record_intern ~fresh = add (if fresh then interned_states else intern_hits) 1

let record_result_cache ~hit =
  add (if hit then result_cache_hits else result_cache_misses) 1

let record_request_cancelled () = add requests_cancelled 1
let record_singleflight_join () = add singleflight_joins 1
let record_gc_compaction () = add gc_compactions 1
let add_ckpt_rejected n = add ckpt_rejected n
let record_mem_soft_event () = add mem_soft_events 1

let add_simgraph_maskings n = add simgraph_maskings n
let add_simgraph_candidates n = add simgraph_candidates n
let add_orbit_hits n = add orbit_hits n

let rec set_bit bit =
  let cur = Atomic.get domain_mask in
  let next = cur lor bit in
  if cur <> next && not (Atomic.compare_and_set domain_mask cur next) then set_bit bit

let record_task ~slot =
  add tasks_executed 1;
  set_bit (1 lsl min slot 62)

let record_worker_respawn () = add workers_respawned 1

let popcount n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

let snapshot () =
  {
    states_expanded = Atomic.get states_expanded;
    dedup_hits = Atomic.get dedup_hits;
    valence_cache_hits = Atomic.get valence_cache_hits;
    valence_cache_misses = Atomic.get valence_cache_misses;
    tasks_executed = Atomic.get tasks_executed;
    domains_utilised = popcount (Atomic.get domain_mask);
    workers_respawned = Atomic.get workers_respawned;
    interned_states = Atomic.get interned_states;
    intern_hits = Atomic.get intern_hits;
    simgraph_maskings = Atomic.get simgraph_maskings;
    simgraph_candidates = Atomic.get simgraph_candidates;
    result_cache_hits = Atomic.get result_cache_hits;
    result_cache_misses = Atomic.get result_cache_misses;
    requests_cancelled = Atomic.get requests_cancelled;
    singleflight_joins = Atomic.get singleflight_joins;
    gc_compactions = Atomic.get gc_compactions;
    ckpt_rejected = Atomic.get ckpt_rejected;
    mem_soft_events = Atomic.get mem_soft_events;
    orbit_hits = Atomic.get orbit_hits;
  }

let reset () =
  Atomic.set states_expanded 0;
  Atomic.set dedup_hits 0;
  Atomic.set valence_cache_hits 0;
  Atomic.set valence_cache_misses 0;
  Atomic.set tasks_executed 0;
  Atomic.set workers_respawned 0;
  Atomic.set interned_states 0;
  Atomic.set intern_hits 0;
  Atomic.set simgraph_maskings 0;
  Atomic.set simgraph_candidates 0;
  Atomic.set result_cache_hits 0;
  Atomic.set result_cache_misses 0;
  Atomic.set requests_cancelled 0;
  Atomic.set singleflight_joins 0;
  Atomic.set gc_compactions 0;
  Atomic.set ckpt_rejected 0;
  Atomic.set mem_soft_events 0;
  Atomic.set orbit_hits 0;
  Atomic.set domain_mask 0

(* [domains_utilised] is a popcount, so restoring it can only mark "that
   many slots": the low bits stand in for whichever slots were live. *)
let mask_of_count k = (1 lsl min (max k 0) 62) - 1

let restore s =
  Atomic.set states_expanded s.states_expanded;
  Atomic.set dedup_hits s.dedup_hits;
  Atomic.set valence_cache_hits s.valence_cache_hits;
  Atomic.set valence_cache_misses s.valence_cache_misses;
  Atomic.set tasks_executed s.tasks_executed;
  Atomic.set workers_respawned s.workers_respawned;
  Atomic.set interned_states s.interned_states;
  Atomic.set intern_hits s.intern_hits;
  Atomic.set simgraph_maskings s.simgraph_maskings;
  Atomic.set simgraph_candidates s.simgraph_candidates;
  Atomic.set result_cache_hits s.result_cache_hits;
  Atomic.set result_cache_misses s.result_cache_misses;
  Atomic.set requests_cancelled s.requests_cancelled;
  Atomic.set singleflight_joins s.singleflight_joins;
  Atomic.set gc_compactions s.gc_compactions;
  Atomic.set ckpt_rejected s.ckpt_rejected;
  Atomic.set mem_soft_events s.mem_soft_events;
  Atomic.set orbit_hits s.orbit_hits;
  Atomic.set domain_mask (mask_of_count s.domains_utilised)

let merge s =
  add states_expanded s.states_expanded;
  add dedup_hits s.dedup_hits;
  add valence_cache_hits s.valence_cache_hits;
  add valence_cache_misses s.valence_cache_misses;
  add tasks_executed s.tasks_executed;
  add workers_respawned s.workers_respawned;
  add interned_states s.interned_states;
  add intern_hits s.intern_hits;
  add simgraph_maskings s.simgraph_maskings;
  add simgraph_candidates s.simgraph_candidates;
  add result_cache_hits s.result_cache_hits;
  add result_cache_misses s.result_cache_misses;
  add requests_cancelled s.requests_cancelled;
  add singleflight_joins s.singleflight_joins;
  add gc_compactions s.gc_compactions;
  add ckpt_rejected s.ckpt_rejected;
  add mem_soft_events s.mem_soft_events;
  add orbit_hits s.orbit_hits;
  let rec or_mask m =
    let cur = Atomic.get domain_mask in
    let next = cur lor m in
    if cur <> next && not (Atomic.compare_and_set domain_mask cur next) then
      or_mask m
  in
  or_mask (mask_of_count s.domains_utilised)

let diff a b =
  let d x y = max 0 (x - y) in
  {
    states_expanded = d a.states_expanded b.states_expanded;
    dedup_hits = d a.dedup_hits b.dedup_hits;
    valence_cache_hits = d a.valence_cache_hits b.valence_cache_hits;
    valence_cache_misses = d a.valence_cache_misses b.valence_cache_misses;
    tasks_executed = d a.tasks_executed b.tasks_executed;
    (* utilisation is a set, not a count: a "delta" keeps [a]'s view *)
    domains_utilised = a.domains_utilised;
    workers_respawned = d a.workers_respawned b.workers_respawned;
    interned_states = d a.interned_states b.interned_states;
    intern_hits = d a.intern_hits b.intern_hits;
    simgraph_maskings = d a.simgraph_maskings b.simgraph_maskings;
    simgraph_candidates = d a.simgraph_candidates b.simgraph_candidates;
    result_cache_hits = d a.result_cache_hits b.result_cache_hits;
    result_cache_misses = d a.result_cache_misses b.result_cache_misses;
    requests_cancelled = d a.requests_cancelled b.requests_cancelled;
    singleflight_joins = d a.singleflight_joins b.singleflight_joins;
    gc_compactions = d a.gc_compactions b.gc_compactions;
    ckpt_rejected = d a.ckpt_rejected b.ckpt_rejected;
    mem_soft_events = d a.mem_soft_events b.mem_soft_events;
    orbit_hits = d a.orbit_hits b.orbit_hits;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>runtime stats:@,\
    \  states expanded       %d@,\
    \  dedup hits            %d@,\
    \  valence cache hits    %d@,\
    \  valence cache misses  %d@,\
    \  tasks executed        %d@,\
    \  domains utilised      %d@,\
    \  workers respawned     %d@,\
    \  interned states       %d@,\
    \  intern hits           %d@,\
    \  simgraph maskings     %d@,\
    \  simgraph candidates   %d@,\
    \  result cache hits     %d@,\
    \  result cache misses   %d@,\
    \  requests cancelled    %d@,\
    \  single-flight joins   %d@,\
    \  gc compactions        %d@,\
    \  checkpoint generations rejected  %d@,\
    \  memory soft events    %d@,\
    \  orbit hits            %d@]@."
    s.states_expanded s.dedup_hits s.valence_cache_hits s.valence_cache_misses
    s.tasks_executed s.domains_utilised s.workers_respawned s.interned_states
    s.intern_hits s.simgraph_maskings s.simgraph_candidates s.result_cache_hits
    s.result_cache_misses s.requests_cancelled s.singleflight_joins
    s.gc_compactions s.ckpt_rejected s.mem_soft_events s.orbit_hits
