type kind = LD | ST

let kind_to_string = function LD -> "LD" | ST -> "ST"

type role = Plain | Critical_load | Critical_store

type t = Mem of { kind : kind; role : role } | Fence of Fence.t

let plain kind = Mem { kind; role = Plain }
let critical_load = Mem { kind = LD; role = Critical_load }
let critical_store = Mem { kind = ST; role = Critical_store }
let fence f = Fence f

let kind_of = function Mem { kind; _ } -> Some kind | Fence _ -> None

let is_critical = function
  | Mem { role = Critical_load | Critical_store; _ } -> true
  | Mem { role = Plain; _ } | Fence _ -> false

let is_critical_load = function
  | Mem { role = Critical_load; _ } -> true
  | Mem _ | Fence _ -> false

let is_critical_store = function
  | Mem { role = Critical_store; _ } -> true
  | Mem _ | Fence _ -> false

let is_fence = function Fence _ -> true | Mem _ -> false

let same_location a b =
  match (a, b) with
  | Mem { role = Critical_load; _ }, Mem { role = Critical_store; _ }
  | Mem { role = Critical_store; _ }, Mem { role = Critical_load; _ } -> true
  | (Mem _ | Fence _), _ -> false

let to_char = function
  | Mem { kind = LD; role = Plain } -> 'L'
  | Mem { kind = ST; role = Plain } -> 'S'
  | Mem { role = Critical_load; _ } -> 'l'
  | Mem { role = Critical_store; _ } -> 's'
  | Fence f -> Fence.to_char f

let to_string = function
  | Mem { kind; role = Plain } -> kind_to_string kind
  | Mem { role = Critical_load; _ } -> "LD*"
  | Mem { role = Critical_store; _ } -> "ST*"
  | Fence f -> "FENCE." ^ Fence.to_string f

let pp fmt t = Format.pp_print_string fmt (to_string t)
