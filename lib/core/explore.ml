type 'a spec = { succ : 'a -> 'a list; key : 'a -> string }

module Budget = Layered_runtime.Budget
module Fault = Layered_runtime.Fault

exception Cut of Budget.reason * int

(* Generic bounded BFS.  [stop] may short-circuit the traversal by returning
   [Some _] for a state of interest.  An exhausted [budget] stops the scan
   before the offending state is visited, so the visited sequence is always
   a prefix of the serial BFS order; the second component reports how far
   the scan got. *)
let bfs ?budget spec ~depth ~visit ~stop x =
  let seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let found = ref None in
  let status = ref Budget.Complete in
  let push d y =
    let k = spec.key y in
    if Hashtbl.mem seen k then Layered_runtime.Stats.add_dedup_hits 1
    else begin
      Hashtbl.add seen k ();
      (* chaos sites, placed after the dedup check on purpose: a state
         dropped here is marked seen yet never scanned (permanently
         lost), and a duplicate enqueued here is scanned twice — neither
         can be silently absorbed by the dedup table. *)
      if not (Fault.point Fault.Drop_successor) then begin
        Queue.add (d, y) queue;
        if Fault.point Fault.Duplicate_state then Queue.add (d, y) queue
      end
    end
  in
  push 0 x;
  let level = ref 0 in
  (try
     while not (Queue.is_empty queue) do
       let d, y = Queue.pop queue in
       (match Budget.exceeded_opt budget with
       | Some reason -> raise_notrace (Cut (reason, d))
       | None -> ());
       (* the queue pops levels in order: the first state of a deeper
          level marks a level boundary, where the soft watermark bites *)
       if d > !level then begin
         level := d;
         Budget.relieve budget
       end;
       Budget.charge_opt budget 1;
       Layered_runtime.Stats.add_states_expanded 1;
       visit y;
       (match stop y with
       | Some _ as r ->
           found := r;
           raise Exit
       | None -> ());
       if d < depth then List.iter (push (d + 1)) (spec.succ y)
     done
   with
  | Exit -> ()
  | Cut (reason, at_depth) ->
      status := (match budget with
        | Some b -> Budget.truncated b ~reason ~at_depth
        | None -> assert false));
  (!found, !status)

let reachable spec ~depth x =
  let acc = ref [] in
  let (_ : 'a option * _) =
    bfs spec ~depth ~visit:(fun y -> acc := y :: !acc) ~stop:(fun _ -> None) x
  in
  List.rev !acc

let count_reachable spec ~depth x =
  let n = ref 0 in
  let (_ : 'a option * _) =
    bfs spec ~depth ~visit:(fun _ -> incr n) ~stop:(fun _ -> None) x
  in
  !n

let reachable_outcome ?budget spec ~depth x =
  let acc = ref [] in
  let _, status =
    bfs ?budget spec ~depth ~visit:(fun y -> acc := y :: !acc) ~stop:(fun _ -> None) x
  in
  { Budget.value = List.rev !acc; status }

let count_reachable_outcome ?budget spec ~depth x =
  let n = ref 0 in
  let _, status =
    bfs ?budget spec ~depth ~visit:(fun _ -> incr n) ~stop:(fun _ -> None) x
  in
  { Budget.value = !n; status }

let exists_reachable_outcome ?budget spec ~depth ~pred x =
  let found, status =
    bfs ?budget spec ~depth ~visit:ignore
      ~stop:(fun y -> if pred y then Some y else None)
      x
  in
  match found with
  | Some _ -> { Budget.value = true; status = Budget.Complete }
  | None -> { Budget.value = false; status }

let iter_runs spec ~depth x ~f =
  let rec go prefix d y =
    if d = 0 then f (List.rev (y :: prefix))
    else List.iter (go (y :: prefix) (d - 1)) (spec.succ y)
  in
  go [] depth x

let find_reachable spec ~depth ~pred x =
  fst (bfs spec ~depth ~visit:ignore ~stop:(fun y -> if pred y then Some y else None) x)

let exists_reachable spec ~depth ~pred x =
  Option.is_some (find_reachable spec ~depth ~pred x)
