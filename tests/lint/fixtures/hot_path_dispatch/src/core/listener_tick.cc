// Fixture: a STAGGER_HOT_PATH function calling virtual methods through a
// whitelisted receiver (sanctioned) and through another one (flagged).
#define STAGGER_HOT_PATH

struct Listener {
  virtual ~Listener() = default;
  virtual void OnStarted(int id) = 0;
};

struct Ticker {
  Listener* listener_ = nullptr;
  Listener* other_ = nullptr;
};

STAGGER_HOT_PATH void NotifyTick(Ticker* t) {
  t->listener_->OnStarted(1);
  t->other_->OnStarted(2);
}
