package fleet

import "sync"

// Default budget constants, shared by the client's retry and hedge
// budgets and the server's hedge budget: one extra request per ten
// successful ones, with ten in hand to start.
const (
	DefaultBudgetRatio = 0.1
	DefaultBudgetBurst = 10
)

// Budget is a token bucket bounding extra requests — retries or hedges —
// to a fraction of successful ones: every Earn credits ratio tokens
// (capped at burst), every Allow spends one, and the bucket starts full.
// Under sustained trouble the extras therefore run at ratio× the success
// rate instead of multiplying the load. A nil *Budget is unlimited.
// Safe for concurrent use.
type Budget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
}

// NewBudget returns a full bucket. ratio <= 0 returns nil, the unlimited
// budget; burst <= 0 means DefaultBudgetBurst.
func NewBudget(ratio float64, burst int) *Budget {
	if ratio <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = DefaultBudgetBurst
	}
	return &Budget{ratio: ratio, burst: float64(burst), tokens: float64(burst)}
}

// Allow spends one token; false means the budget is dry and the extra
// request should not be sent.
func (b *Budget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Earn credits one successful request.
func (b *Budget) Earn() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = min(b.tokens+b.ratio, b.burst)
	b.mu.Unlock()
}
