package obs

import (
	"fmt"
	"io"
	"time"
)

// Timeline renders the event stream as a human-readable per-event log,
// covering routing, caching, migrations, replica lifecycle, faults,
// hedging and the engines' elastic events (the paper's Fig 6 group
// lifecycle) in one chronological view. Events are assumed to already be
// in emission order (which is chronological: everything fires on one
// simulator clock).
func Timeline(w io.Writer, events []Event) {
	for _, e := range events {
		where := "fleet"
		if e.Replica >= 0 {
			where = fmt.Sprintf("r%d", e.Replica)
		}
		fmt.Fprintf(w, "%12v  %-5s %-13s %s\n",
			time.Duration(e.At).Round(time.Microsecond), where, e.Kind, detail(e))
	}
}

// detail renders the kind-specific fields of one event.
func detail(e Event) string {
	switch e.Kind {
	case KindEnqueue:
		return fmt.Sprintf("req=%d session=%d in=%d out=%d", e.Request, e.Session, e.Tokens, e.A)
	case KindRoute:
		if e.A >= 0 {
			return fmt.Sprintf("req=%d session=%d policy=%s migrate-from=r%d", e.Request, e.Session, e.Label, e.A)
		}
		return fmt.Sprintf("req=%d session=%d policy=%s", e.Request, e.Session, e.Label)
	case KindCacheLookup:
		if e.Tokens == 0 {
			return fmt.Sprintf("req=%d miss (input=%d)", e.Request, e.A)
		}
		return fmt.Sprintf("req=%d hit=%d/%d tokens", e.Request, e.Tokens, e.A)
	case KindMigrate:
		return fmt.Sprintf("session=%d %s: %d KV tokens -> r%d (link %v)",
			e.Session, e.Label, e.Tokens, e.A, time.Duration(e.B).Round(time.Microsecond))
	case KindFinish:
		return fmt.Sprintf("req=%d session=%d out=%d prefill=%v decode=%v",
			e.Request, e.Session, e.Tokens,
			time.Duration(e.A-e.B).Round(time.Microsecond),
			(time.Duration(e.At) - time.Duration(e.A)).Round(time.Microsecond))
	case KindProvision, KindActivate, KindDrain, KindRetire:
		if e.Label != "" {
			return fmt.Sprintf("kind=%s", e.Label)
		}
		return ""
	case KindAutoscale:
		return fmt.Sprintf("%s replica=%d outstanding=%d active=%d warming=%d",
			e.Label, e.Replica, e.Tokens, e.A, e.B)
	case KindDirectoryUpdate:
		return fmt.Sprintf("%s loc=%d delta=%+d total=%d", e.Label, e.Replica, e.Tokens, e.A)
	case KindContentRoute:
		return fmt.Sprintf("req=%d claim=%d queue=%d eligible=%d", e.Request, e.Tokens, e.A, e.B)
	case KindColdSpill:
		return fmt.Sprintf("tokens=%d cold_used=%d cold_blocks=%d", e.Tokens, e.A, e.B)
	case KindColdFetch:
		return fmt.Sprintf("req=%d tokens=%d link=%v recompute=%v", e.Request, e.Tokens,
			time.Duration(e.A).Round(time.Microsecond), time.Duration(e.B).Round(time.Microsecond))
	case KindCrash:
		return fmt.Sprintf("kind=%s inflight=%d kv_lost=%d", e.Label, e.Tokens, e.A)
	case KindRecover:
		return fmt.Sprintf("req=%d session=%d from=r%d salvaged=%d", e.Request, e.Session, e.A, e.Tokens)
	case KindHedgeLaunch:
		return fmt.Sprintf("req=%d session=%d in=%d primary=r%d elapsed=%v",
			e.Request, e.Session, e.Tokens, e.A, time.Duration(e.B).Round(time.Microsecond))
	case KindHedgeWin:
		return fmt.Sprintf("req=%d session=%d loser=r%d", e.Request, e.Session, e.A)
	case KindHedgeLose:
		return fmt.Sprintf("req=%d session=%d burned=%d winner=r%d", e.Request, e.Session, e.Tokens, e.A)
	default: // engine kinds; every other kind has its case above
		return fmt.Sprintf("group=%d dop=%d batch=%d tokens=%d", e.Group, e.A, e.B, e.Tokens)
	}
}
