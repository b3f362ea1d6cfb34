package refmodel

import (
	"fmt"

	"castanet/internal/atm"
	"castanet/internal/netsim"
)

// AccountingRef is the algorithmic reference of the accounting unit: it
// wraps the charging algorithm of package atm as a netsim sink process.
type AccountingRef struct {
	Acct *atm.Accounting
}

// Init implements netsim.Processor.
func (a *AccountingRef) Init(ctx *netsim.Ctx) {}

// Arrival implements netsim.Processor.
func (a *AccountingRef) Arrival(ctx *netsim.Ctx, pkt netsim.Packet, port int) {
	c, ok := pkt.Data.(*atm.Cell)
	if !ok {
		panic(fmt.Sprintf("refmodel: AccountingRef got %T, want *atm.Cell", pkt.Data))
	}
	a.Acct.Observe(c, ctx.Now())
}

// Timer implements netsim.Processor.
func (a *AccountingRef) Timer(ctx *netsim.Ctx, tag interface{}) {}
